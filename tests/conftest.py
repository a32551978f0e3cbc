"""Session-scoped spectral tables shared across test modules.

Building a table costs seconds; every consumer reuses these fixtures
instead of re-solving.  All tables use solver defaults so the invariants
they certify are the ones shipped to users.
"""

import pytest

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
