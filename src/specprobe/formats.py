"""Deterministic text formats: the CSV exports and the spectrum cache record.

Floats are written with 17 significant digits, enough to round-trip IEEE
doubles exactly, so repeated runs with identical inputs produce
byte-identical files.

A cached spectrum table is a JSON record, format version
``SPECTRUM_FORMAT_VERSION``, beside one ``.npy`` file of samples that
takes the record's name with the suffix ``.npy``.  ``SpectrumRecord`` is
the one declaration of a table's layout: channel, model, grid, solver
settings and the per-level eigenvalues, counters and corrections.  Its
grid is a ``RadialGrid``, ``(r_min, h, n_points)`` with the far end
derived, built on reading, so the grid's own checks judge every record.
The record is written and read here without numpy (the grid's arrays
import it when first read), so the command line checks a cache, and fits
its eigenvalues, before it loads numpy; ``eigensolve.SpectrumTable`` is
the record plus the samples.

Every file the package writes, a cache's samples and record, the CSVs,
``run.json`` and ``report.md``, goes through ``replace_files``: each file
is written whole to a temporary file beside its target, named from the
target and the process id, and only then moved over the target with
``os.replace``.  A reader, or a process that has the old file mapped,
sees the old file or the new one, never a torn one; a write that fails
leaves every target as it was and removes the temporary files.  There is
no ``fsync``: the aim is that no reader sees a torn file, not durability
across power loss.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .model import Channel, PotentialModel

__all__ = [
    "fmt",
    "replace_files",
    "write_csv",
    "RadialGrid",
    "SPECTRUM_FORMAT_VERSION",
    "SpectrumFormatError",
    "SpectrumRecord",
    "read_spectrum_record",
]

SPECTRUM_FORMAT_VERSION = 3


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def replace_files(contents: dict) -> None:
    """Replace each file ``path -> content`` of ``contents``; a content is a
    text, written as ASCII, or a function that writes the bytes to the
    binary file it is given.  Every file is written beside its target
    before the first is moved over its own, in the order given."""
    staged = {}
    try:
        for path, content in contents.items():
            path = Path(path)
            temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            staged[temporary] = path
            with open(temporary, "wb") as file:
                if isinstance(content, str):
                    file.write(content.encode("ascii"))
                else:
                    content(file)
        for temporary, path in staged.items():
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        raise


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    replace_files({path: "\n".join(lines) + "\n"})
    return path


class _RadialGrid(NamedTuple):
    r_min: float
    h: float
    n_points: int


class RadialGrid(_RadialGrid):
    """Uniform radial grid ``r_i = r_min + i h`` with ``r = 1`` on a node.

    A grid is the tuple ``(r_min, h, n_points)``, checked when it is built;
    it has no ``__slots__``, so its instance dict holds the arrays ``r`` and
    ``simpson_weights`` once they are first read.
    """

    def __new__(cls, r_min: float, h: float, n_points: int):
        if n_points < 9:
            raise ValueError("grid needs at least nine points")
        if not (0.0 < r_min < math.inf and 0.0 < h < math.inf):
            raise ValueError("need finite r_min > 0 and h > 0")
        if n_points % 2 == 0:
            raise ValueError("need an odd point count for the composite rule")
        return super().__new__(cls, r_min, h, n_points)

    @property
    def r_max(self) -> float:
        """The far end, ``r_min + (n_points - 1) h``."""
        return self.r_min + (self.n_points - 1) * self.h

    @cached_property
    def r(self):
        import numpy as np

        return self.r_min + self.h * np.arange(self.n_points)

    @cached_property
    def simpson_weights(self):
        import numpy as np

        w = np.full(self.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (self.h / 3.0)

    def index_of(self, value: float) -> int:
        i = int(round((value - self.r_min) / self.h))
        if not (0 <= i < self.n_points):
            raise ValueError(f"radius {value} outside the grid")
        if abs(self.r_min + i * self.h - value) > 1e-6 * self.h:
            raise ValueError(f"radius {value} does not sit on a grid node")
        return i


class SpectrumFormatError(ValueError):
    """A saved table in a format version other than ``SPECTRUM_FORMAT_VERSION``."""


# a record's per-level fields -> their keys in the JSON record's "levels"
_PER_LEVEL = {"eigenvalues": "lambda", "sweeps": "sweeps", "bisections": "bisections",
              "shifts": "shift"}


class SpectrumRecord(NamedTuple):
    """A cached table's JSON record: everything but the samples, which sit
    beside it in the ``.npy`` file of the same name."""

    channel: Channel
    model: PotentialModel
    grid: RadialGrid
    tolerances: dict
    eigenvalues: tuple[float, ...]
    sweeps: tuple[int, ...]
    bisections: tuple[int, ...]
    shifts: tuple[float, ...]

    def truncated(self, count: int) -> "SpectrumRecord":
        """The record of the first ``count`` levels."""
        return self._replace(**{field: getattr(self, field)[:count] for field in _PER_LEVEL})

    def to_json(self) -> str:
        """The record as the JSON text of its file."""
        g = self.grid
        doc = {
            "format_version": SPECTRUM_FORMAT_VERSION,
            "model": self.model.spec_string,
            "d": self.channel.d,
            "n": self.channel.n,
            "grid": {"r_min": g.r_min, "h": g.h, "n_points": g.n_points},
            "tolerances": self.tolerances,
            "levels": {key: list(getattr(self, field)) for field, key in _PER_LEVEL.items()},
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def read_spectrum_record(path) -> SpectrumRecord:
    """The record at ``path``; ``SpectrumFormatError`` for another format
    version, and ``ValueError``, ``KeyError`` or ``TypeError`` for a
    malformed one: not a JSON object, a grid that fails ``RadialGrid``'s
    checks, or per-level lists of unequal lengths.  Keys it does not read,
    such as the ``threshold_radius``, ``harmonic``, ``samples_file`` and
    ``grid.r_max`` of older records, are ignored."""
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the record is not a JSON object")
    if doc.get("format_version") != SPECTRUM_FORMAT_VERSION:
        raise SpectrumFormatError(
            f"unsupported spectrum format version {doc.get('format_version')}"
        )
    g, levels = doc["grid"], doc["levels"]
    per_level = {field: tuple(levels[key]) for field, key in _PER_LEVEL.items()}
    if len({len(values) for values in per_level.values()}) != 1:
        raise ValueError(f"{path}: the per-level lists differ in length")
    per_level["eigenvalues"] = tuple(float(lam) for lam in per_level["eigenvalues"])
    return SpectrumRecord(
        channel=Channel(doc["d"], doc["n"]),
        model=PotentialModel.from_spec(doc["model"]),
        grid=RadialGrid(g["r_min"], g["h"], g["n_points"]),
        tolerances=doc["tolerances"],
        **per_level,
    )
