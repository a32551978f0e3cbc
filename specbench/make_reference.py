"""Regenerate the reference eigenvalues the benchmark checks against.

Solves every benchmark channel once with a tighter solver setting than the
CLI default (twice the points per wavelength, ``rel_tol = 1e-12``) and
writes ``specbench/reference.json``.  Run from the repository root:

    PYTHONPATH=src python3 specbench/make_reference.py

The quartic ground and first excited levels are cross-checked against the
independent dense-grid oracle values frozen in the acceptance tests.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from specprobe.eigensolve import DEFAULT_POINTS_PER_WAVELENGTH, solve_spectrum
from specprobe.potential import Channel, PotentialModel

HERE = Path(__file__).resolve().parent
PPW = 2.0 * DEFAULT_POINTS_PER_WAVELENGTH
REL_TOL = 1e-12
ORACLE = {"1*r^4": {"3:0": (3.799673029801394, 11.644745511378)}}
ORACLE_TOL = 1e-9

# model spec -> channels and the highest level each workload solves
TARGETS = {
    "1*r^4": {"channels": ["3:0"], "lmax": 60},
    "1*r^4+0.5*r^6": {"channels": ["3:0", "5:2"], "lmax": 24},
}


def main() -> int:
    out = {
        "command": "PYTHONPATH=src python3 specbench/make_reference.py",
        "points_per_wavelength": PPW,
        "rel_tol": REL_TOL,
        "models": {},
    }
    for spec, target in TARGETS.items():
        model = PotentialModel.from_spec(spec)
        channels = {}
        for key in target["channels"]:
            d, n = (int(x) for x in key.split(":"))
            start = time.perf_counter()
            table = solve_spectrum(
                Channel(d, n), model, target["lmax"],
                rel_tol=REL_TOL, points_per_wavelength=PPW,
            )
            lams = [float(p.lam) for p in table.eigenpairs]
            for level, want in enumerate(ORACLE.get(spec, {}).get(key, ())):
                if abs(lams[level] - want) > ORACLE_TOL * want:
                    print(f"{spec} {key} level {level}: {lams[level]!r} "
                          f"disagrees with oracle {want!r}", file=sys.stderr)
                    return 1
            channels[key] = lams
            print(f"{spec} {key}: {len(lams)} levels, {table.grid.n_points} points, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
        out["models"][spec] = channels
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
