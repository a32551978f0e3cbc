"""Deterministic text formats: the CSV exports and the spectrum cache record.

Floats are written with 17 significant digits, enough to round-trip IEEE
doubles exactly, so repeated runs with identical inputs produce
byte-identical files.

A cached spectrum table is a JSON record, format version
``SPECTRUM_FORMAT_VERSION``, beside one ``.npy`` file of samples that
takes the record's name with the suffix ``.npy``.  The grid is its
``r_min``, step ``h`` and point count; its far end follows from them.
``SpectrumRecord`` is the record without the samples: it is written and
read here without numpy, so the command line checks a cache, and fits its
eigenvalues, before it loads numpy; ``eigensolve`` adds the samples.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .model import Channel, PotentialModel

__all__ = [
    "fmt",
    "write_csv",
    "SPECTRUM_FORMAT_VERSION",
    "SpectrumFormatError",
    "SpectrumRecord",
    "read_spectrum_record",
]

SPECTRUM_FORMAT_VERSION = 3


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


class SpectrumFormatError(ValueError):
    """A saved table in a format version other than ``SPECTRUM_FORMAT_VERSION``."""


class SpectrumRecord(NamedTuple):
    """A cached table's JSON record: everything but the samples, which sit
    beside it in the ``.npy`` file of the same name."""

    channel: Channel
    model: PotentialModel
    grid: tuple[float, float, int]  # r_min, h, n_points
    tolerances: dict
    eigenvalues: tuple[float, ...]
    sweeps: tuple[int, ...]
    bisections: tuple[int, ...]
    shifts: tuple[float, ...]

    def truncated(self, count: int) -> "SpectrumRecord":
        """The record of the first ``count`` levels."""
        return self._replace(
            eigenvalues=self.eigenvalues[:count],
            sweeps=self.sweeps[:count],
            bisections=self.bisections[:count],
            shifts=self.shifts[:count],
        )

    def write(self, path) -> Path:
        """Write the record as JSON to ``path``."""
        r_min, h, n_points = self.grid
        doc = {
            "format_version": SPECTRUM_FORMAT_VERSION,
            "model": self.model.spec_string,
            "d": self.channel.d,
            "n": self.channel.n,
            "grid": {"r_min": r_min, "h": h, "n_points": n_points},
            "tolerances": self.tolerances,
            "levels": {
                "lambda": list(self.eigenvalues),
                "sweeps": list(self.sweeps),
                "bisections": list(self.bisections),
                "shift": list(self.shifts),
            },
        }
        path = Path(path)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="ascii")
        return path


def read_spectrum_record(path) -> SpectrumRecord:
    """The record at ``path``; ``SpectrumFormatError`` for another format
    version, and ``ValueError``, ``KeyError`` or ``TypeError`` for a
    malformed one: not a JSON object, or per-level lists of unequal
    lengths.  Keys it does not read, such as the ``threshold_radius``,
    ``harmonic``, ``samples_file`` and ``grid.r_max`` of older records, are
    ignored."""
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the record is not a JSON object")
    if doc.get("format_version") != SPECTRUM_FORMAT_VERSION:
        raise SpectrumFormatError(
            f"unsupported spectrum format version {doc.get('format_version')}"
        )
    g, levels = doc["grid"], doc["levels"]
    per_level = [levels[key] for key in ("lambda", "sweeps", "bisections", "shift")]
    if len({len(values) for values in per_level}) != 1:
        raise ValueError(f"{path}: the per-level lists differ in length")
    lams, sweeps, bisections, shifts = per_level
    return SpectrumRecord(
        channel=Channel(doc["d"], doc["n"]),
        model=PotentialModel.from_spec(doc["model"]),
        grid=(g["r_min"], g["h"], g["n_points"]),
        tolerances=doc["tolerances"],
        eigenvalues=tuple(float(lam) for lam in lams),
        sweeps=tuple(sweeps),
        bisections=tuple(bisections),
        shifts=tuple(shifts),
    )
