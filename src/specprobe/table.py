"""Spectrum tables, opened and read without numpy.

A ``SpectrumTable`` is its cache record plus the samples ``(L, N)``: an
array, or the ``.npy`` beside a saved record, which ``open_spectrum``
checks against the record once and each read copies from into a new
read-only buffer, so a process holds O(N) samples, not O(L N).  numpy
loads only for the arrays a caller asks for, which wrap those buffers.
"""

from __future__ import annotations

import os
import sys
import weakref
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .formats import RadialGrid, SpectrumRecord, read_spectrum_record
from .model import Channel, PotentialModel

__all__ = ["SpectrumTable", "npy_header", "open_spectrum"]


def npy_header(shape: tuple[int, int]) -> bytes:
    """The ``.npy`` 1.0 header ``np.save`` writes for a C-ordered float64
    matrix of ``shape``: the dict, with room for a 21-digit first axis,
    padded with spaces to a multiple of 64 bytes."""
    shape = tuple(map(int, shape))
    text = "{'descr': '%sf8', 'fortran_order': False, 'shape': %r, }" % (
        "<" if sys.byteorder == "little" else ">", shape) + " " * (21 - len(repr(shape[0])))
    text += " " * (64 - (len(text) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("latin1")


class _SampleFile:
    """A saved table's ``.npy``, opened once and read through its descriptor,
    so a file replaced after it was opened goes on being read.  ``head`` is
    the first rows of the same file; the descriptor closes once the file
    and every head of it are freed."""

    __slots__ = ("fd", "offset", "shape", "_whole", "__weakref__")

    def __init__(self, fd: int, offset: int, shape: tuple[int, int], whole=None):
        self.fd, self.offset, self.shape = fd, offset, shape
        self._whole = whole  # the file a head keeps open
        if whole is None:
            weakref.finalize(self, os.close, fd)

    @classmethod
    def open(cls, path, shape: tuple[int, int]) -> "_SampleFile":
        """The file at ``path``; ``ValueError`` unless it starts with the
        ``npy_header`` of ``shape`` and then holds exactly that many samples."""
        header = npy_header(shape)
        fd = os.open(path, os.O_RDONLY)
        try:
            if os.pread(fd, len(header), 0) != header:
                raise ValueError(f"{path}: not the .npy header of a float64 {shape} matrix")
            if os.fstat(fd).st_size != len(header) + 8 * shape[0] * shape[1]:
                raise ValueError(f"{path}: the size disagrees with the header")
        except BaseException:
            os.close(fd)
            raise
        return cls(fd, len(header), shape)

    def head(self, count: int) -> "_SampleFile":
        return _SampleFile(self.fd, self.offset, (count, self.shape[1]), self._whole or self)

    def read(self, levels: range, columns: range) -> memoryview:
        """Rows ``levels`` at ``columns``, unit-step ranges inside the shape,
        as a new flat read-only float64 buffer in row order."""
        width, size = self.shape[1], 8 * len(columns)
        out = memoryview(bytearray(size * len(levels)))
        start = self.offset + 8 * (levels.start * width + columns.start)
        if len(columns) == width:  # whole rows lie next to each other
            parts = [(out, start)]
        else:
            parts = [(out[k * size : (k + 1) * size], start + 8 * k * width)
                     for k in range(len(levels))]
        for buffer, at in parts:
            if os.preadv(self.fd, [buffer], at) != buffer.nbytes:
                raise EOFError("the samples file ends before its header says")
        return out.cast("d").toreadonly()


class _EigenPairs(Sequence):
    """A table's levels as eigenpairs, each built from its row when it is
    read; a slice is a tuple of them.  It holds no row."""

    __slots__ = ("table",)

    def __init__(self, table: "SpectrumTable"):
        self.table = table

    def __len__(self) -> int:
        return len(self.table.record.eigenvalues)

    def __getitem__(self, index):
        levels = range(len(self))[index]
        if isinstance(index, slice):
            return tuple(self.table.pair(level) for level in levels)
        return self.table.pair(levels)


class _SpectrumTable(NamedTuple):
    record: SpectrumRecord
    samples: object  # an (L, N) numpy array, or a _SampleFile


class SpectrumTable(_SpectrumTable):
    """Levels ``0 .. L-1`` of one channel on a shared grid, read alike from
    memory or from the file; its instance dict holds ``eigenvalues`` once
    they are first read, and ``eigenpairs`` reads each pair's row when that
    pair is read."""

    def __new__(cls, record: SpectrumRecord, samples):
        shape = (len(record.eigenvalues), record.grid.n_points)
        if samples.shape != shape:
            raise ValueError(f"samples do not hold {shape[0]} levels on the grid")
        return super().__new__(cls, record, samples)

    @property
    def channel(self) -> Channel:
        return self.record.channel

    @property
    def model(self) -> PotentialModel:
        return self.record.model

    @property
    def grid(self) -> RadialGrid:
        return self.record.grid

    @cached_property
    def eigenvalues(self):
        import numpy as np

        return np.array(self.record.eigenvalues, dtype=float)

    def _read(self, levels: range, columns: range):
        """Rows ``levels`` at ``columns``, flat in row order: a buffer read
        from the file, or the rows in memory (a view where they are whole)."""
        if isinstance(self.samples, _SampleFile):
            return self.samples.read(levels, columns)
        return self.samples[levels.start : levels.stop, columns.start : columns.stop].ravel()

    def row(self, level: int):
        """The samples of one level: a view of the row in memory, or a
        read-only copy read from the file."""
        level = range(len(self.record.eigenvalues))[level]
        return self.block(slice(None), slice(level, level + 1))[0]

    def block(self, columns: slice | Sequence[int] = slice(None), levels: slice = slice(None)):
        """Samples of ``levels`` (every level by default) at ``columns``, a
        unit-step slice of the grid or a list of grid indices, one row per
        level; a loaded table reads only those."""
        import numpy as np

        levels = range(len(self.record.eigenvalues))[levels]
        if isinstance(columns, slice):
            columns = range(self.grid.n_points)[columns]
            return np.asarray(self._read(levels, columns)).reshape(len(levels), len(columns))
        values = self.columns(columns, slice(levels.start, levels.stop))
        return np.array(values, dtype=float).reshape(len(columns), len(levels)).T

    def columns(self, indices: Sequence[int], levels: slice = slice(None)) -> list[list[float]]:
        """Samples of ``levels`` at each grid index of ``indices`` (indexed
        as a list's), one list per index; a loaded table keeps the last ones
        it read, as its open file does not change, for the kernel's next time."""
        key = range(len(self.record.eigenvalues))[levels], tuple(
            map(range(self.grid.n_points).__getitem__, indices))
        if not isinstance(self.samples, _SampleFile) or self.__dict__.get("_kept", ())[:1] != (key,):
            self.__dict__["_kept"] = key, [self._read(key[0], range(i, i + 1)).tolist() for i in key[1]]
        return [list(values) for values in self.__dict__["_kept"][1]]

    def pair(self, level: int):
        """Level ``level`` as an ``eigensolve.EigenPair``."""
        from .eigensolve import _eigenpair

        if not 0 <= level < len(self.record.eigenvalues):
            raise IndexError(f"level {level} outside 0..{len(self.record.eigenvalues) - 1}")
        rec = self.record
        return _eigenpair(self.grid, level, rec.eigenvalues[level], self.row(level),
                          rec.sweeps[level], rec.bisections[level], rec.shifts[level])

    @property
    def eigenpairs(self) -> Sequence:
        return _EigenPairs(self)

    def truncated(self, count: int) -> "SpectrumTable":
        """The table of the first ``count`` levels."""
        samples = self.samples
        head = samples.head(count) if isinstance(samples, _SampleFile) else samples[:count]
        return SpectrumTable(self.record.truncated(count), head)


def open_spectrum(path) -> SpectrumTable:
    """The table saved at ``path``, its samples read on demand; ``ValueError``
    here, before any read, where the ``.npy`` disagrees with the record."""
    path = Path(path)
    record = read_spectrum_record(path)
    shape = (len(record.eigenvalues), record.grid.n_points)
    return SpectrumTable(record, _SampleFile.open(path.with_suffix(".npy"), shape))
