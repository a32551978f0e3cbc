"""Session-scoped spectral tables shared across test modules, and a full
disk for the file writes.

Building a table costs seconds; every consumer reuses these fixtures
instead of re-solving.  All tables use solver defaults so the invariants
they certify are the ones shipped to users.
"""

import contextlib
import errno
from pathlib import Path

import pytest

from specprobe import formats
from specprobe.eigensolve import solve_spectrum
from specprobe.potential import Channel, PotentialModel

QUARTIC = PotentialModel.pure(4, 1.0)
SEXTIC = PotentialModel.pure(6, 1.0)
HARMONIC = PotentialModel.pure(2, 1.0)


@pytest.fixture(scope="session")
def quartic_n0():
    return solve_spectrum(Channel(3, 0), QUARTIC, 60)


@pytest.fixture(scope="session")
def quartic_n1():
    return solve_spectrum(Channel(3, 1), QUARTIC, 52)


@pytest.fixture(scope="session")
def sextic_n0():
    return solve_spectrum(Channel(3, 0), SEXTIC, 60)


@pytest.fixture(scope="session")
def osc_n0():
    return solve_spectrum(Channel(3, 0), HARMONIC, 20)


@pytest.fixture(scope="session")
def osc_n1():
    return solve_spectrum(Channel(3, 1), HARMONIC, 20)


@pytest.fixture(scope="session")
def quartic_channel_tables(quartic_n0, quartic_n1):
    """Quartic tables for d in {3,4,5}, n in {0..3}, levels to 40."""
    tables = {(3, 0): quartic_n0, (3, 1): quartic_n1}
    for d in (3, 4, 5):
        for n in range(4):
            if (d, n) not in tables:
                tables[(d, n)] = solve_spectrum(Channel(d, n), QUARTIC, 40)
    return tables


class _HalfWriter:
    """A file whose first write stores half its bytes and then fails."""

    def __init__(self, file):
        self.file = file

    def write(self, data):
        data = memoryview(data).cast("B")
        self.file.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


@contextlib.contextmanager
def _full_disk(name: str):
    real_open = open

    def half_open(path, *args, **kwargs):
        file = real_open(path, *args, **kwargs)
        return _HalfWriter(file) if Path(path).name.startswith(name) else file

    with pytest.MonkeyPatch.context() as patch:
        # formats.replace_files opens every file the package writes
        patch.setattr(formats, "open", half_open, raising=False)
        yield


@pytest.fixture
def full_disk():
    """``with full_disk(name):`` every write of a file whose name starts
    with ``name`` fails half way through, as on a full disk."""
    return _full_disk
