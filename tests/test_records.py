"""The checked records reject bad input when they are built.

Each is a ``NamedTuple`` whose constructor runs its checks, so these cases
reach the constructor directly; the cases other tests already reach (an
odd exponent, ``d < 3``, ``n < 0``, ``sigma = 0``) are left to them.
"""

import math

import numpy as np
import pytest

from specprobe.eigensolve import SpectrumTable
from specprobe.formats import RadialGrid, SpectrumRecord
from specprobe.model import Channel, PotentialModel, PowerTerm
# renamed on import: pytest would try to collect a class named Test*
from specprobe.probe import TestFunction as Bump, WindowSpec

GRID = RadialGrid(0.96, 0.01, 9)  # r = 1 on its middle node
RECORD = SpectrumRecord(Channel(3, 0), PotentialModel.pure(4), GRID, {}, (1.0, 2.0),
                        (1, 1), (0, 0), (0.0, 0.0))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PowerTerm(4, -1.0), "coefficient must be positive", id="coefficient<0"),
    pytest.param(lambda: PowerTerm(4, math.inf), "coefficient must be positive",
                 id="coefficient-inf"),
    pytest.param(lambda: PotentialModel(()), "at least one term", id="no-terms"),
    pytest.param(lambda: Channel(3.0, 0), "dimension d must be an integer", id="d-float"),
    pytest.param(lambda: Channel(3, 0.0), "sector index n must be", id="n-float"),
    pytest.param(lambda: RadialGrid(1e-3, 0.01, 10), "odd point count", id="grid-even"),
    pytest.param(lambda: RadialGrid(1e-3, 0.01, 7), "at least nine points", id="grid-7"),
    pytest.param(lambda: RadialGrid(1e-3, math.inf, 9), "finite r_min > 0 and h > 0", id="h-inf"),
    pytest.param(lambda: RadialGrid(1e-3, math.nan, 9), "finite r_min > 0 and h > 0", id="h-nan"),
    pytest.param(lambda: RadialGrid(0.0, 0.01, 9), "finite r_min > 0 and h > 0", id="r_min-0"),
    pytest.param(lambda: Bump(1.0, 0.2, np.zeros(9), 0.0), "bump mass must be positive",
                 id="mass-0"),
    pytest.param(lambda: Bump(1.0, 0.2, np.zeros(9), -1.0), "bump mass must be positive",
                 id="mass<0"),
    pytest.param(lambda: WindowSpec(-1.0), "sigma must be positive and finite", id="sigma<0"),
    pytest.param(lambda: WindowSpec(math.inf), "sigma must be positive and finite", id="sigma-inf"),
    pytest.param(lambda: SpectrumTable(RECORD, np.zeros((2, 8))),
                 "samples do not hold 2 levels", id="samples-short"),
    pytest.param(lambda: SpectrumTable(RECORD, np.zeros((3, 9))),
                 "samples do not hold 2 levels", id="samples-extra-level"),
])
def test_checked_record_rejects_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_potential_model_merges_and_sorts_its_terms():
    model = PotentialModel((PowerTerm(6, 0.5), PowerTerm(4, 1.0), PowerTerm(6, 0.25)))
    assert model.terms == (PowerTerm(4, 1.0), PowerTerm(6, 0.75))
    assert all(type(term) is PowerTerm for term in model.terms)
    assert model == PotentialModel.from_spec("1*r^4+0.75*r^6")


def test_derived_arrays_are_computed_once():
    # a grid and a table keep an instance dict for their cached arrays; a
    # table's eigenpairs are a view that reads each row when it is indexed
    assert GRID.r is GRID.r and GRID.simpson_weights is GRID.simpson_weights
    table = SpectrumTable(RECORD, np.zeros((2, 9)))
    assert table.eigenvalues is table.eigenvalues and "eigenpairs" not in vars(table)
    assert [pair.level for pair in table.eigenpairs] == [0, 1]
    assert table.grid is GRID and WindowSpec() == WindowSpec(1.0)
