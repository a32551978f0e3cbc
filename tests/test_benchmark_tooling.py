"""Names the benchmark scripts read from the package.

``specbench/tracing.py`` wraps each ``(module, attr)`` of its
``BOUNDARIES`` from outside and reports the metrics built on a name that
no longer exists as absent, without failing.  ``specbench/make_reference.py``
reads the eigenvalues through ``table.eigenpairs``.  These tests fail
instead when the package drops what those scripts read.  The tracing
script is read as text and run in a fresh namespace, so nothing is
written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "specbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("specbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_is_a_package_callable():
    boundaries = load_tracing().BOUNDARIES
    assert boundaries
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in boundaries
        if not callable(getattr(importlib.import_module(f"specprobe.{module}"), attr, None))
    ]
    assert missing == []


def test_eigenpairs_carry_the_eigenvalues(quartic_n0):
    assert [p.lam for p in quartic_n0.eigenpairs] == quartic_n0.eigenvalues.tolist()
    assert [p.level for p in quartic_n0.eigenpairs] == list(range(61))
