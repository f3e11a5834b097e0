"""
The rounding floor of the 2D golden pins: how far each pinned cell moves
when nothing changes but rounding.

Every 2D pin of test_golden.PINS is swept in this process RUNS + 2 times,
each time with its node coordinates moved by one ulp: in run i < RUNS
every coordinate moves by -1, 0 or +1 ulp, drawn from numpy's
default_rng(SEED + i); the last two runs move every coordinate by +1 ulp
and by -1 ulp. The curve's parameters, jacobians, normals, curvatures and
weights stay as they are. Each pin is then swept once more through the
command line in a fresh interpreter at one OpenBLAS thread
(test_golden._run_pin); the pins' own two threads are the unperturbed
in-process sweep, which must reproduce every pin cell exactly (the
script stops if it does not). A cell's move is test_golden.relative_move
of it against the pinned cell. Per pin and column (wall_time_ms and
solver aside, residual included) the floor is the largest move of any
cell over all those runs.

    PYTHONPATH=src python tests/golden_floor.py

prints per pin and column the range of the random runs' largest moves,
the moves of the +1 ulp, -1 ulp and one-thread runs and the floor, and
rewrites tests/golden/floor.json with them, which `test_golden.py
--against ROOT` reads. The output is the same on every run. This is
tooling outside Tier-1: the 1e-12 byte pins stay, and the floor says why
two discretisations one ulp apart cannot both meet them.
"""

import os

# before numpy is imported: the pins were written at two threads
os.environ["OPENBLAS_NUM_THREADS"] = "2"

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from plasmonres.cli import load_sweep_config
from plasmonres.sweep import run_sweep
from test_golden import FLOOR_PATH, GOLDEN_DIR, IGNORED, PINS, _read, _run_pin, relative_move

PINS_2D = sorted(name for name, pin in PINS.items() if pin["dim"] == 2)
RUNS = 5
SEED = 0


def move_ulps(points, steps):
    """points with each coordinate moved by its step, -1, 0 or +1 ulp."""
    return np.where(steps == 0, points, np.nextafter(points, np.copysign(np.inf, steps)))


def largest_moves(rows, pinned):
    """{column: largest relative move of its cells} of rows against the pinned rows."""
    if len(rows) != len(pinned):
        sys.exit(f"{len(rows)} rows against {len(pinned)} pinned")
    columns = [key for key in pinned[0] if key not in IGNORED and key != "solver"]
    if any(row["solver"] != ref["solver"] for row, ref in zip(rows, pinned)):
        sys.exit("the solver column moved")
    return {key: max(relative_move(row[key], ref[key]) for row, ref in zip(rows, pinned))
            for key in columns}


def _sweep_in_process(name, csv_path, points=None):
    """Rows of pin name swept here, on its nodes with points replaced when given."""
    config = load_sweep_config(dict(PINS[name], csv_path=str(csv_path)))
    if points is not None:
        nodes = dataclasses.replace(config.geometry, points=points)
        config = dataclasses.replace(config, geometry=nodes)
    run_sweep(config)
    return _read(csv_path)


def pin_floor(name, tmp):
    """{"columns": {column: {"ulp": [lo, hi], "up": m, "down": m, "blas1": m, "floor": m}}}."""
    pinned = _read(GOLDEN_DIR / f"{name}.csv")
    if any(largest_moves(_sweep_in_process(name, tmp / "plain.csv"), pinned).values()):
        sys.exit(f"{name}: the unperturbed in-process sweep does not reproduce the pin")
    points = load_sweep_config(dict(PINS[name], csv_path=str(tmp / "x.csv"))).geometry.points
    steps = [np.random.default_rng(SEED + i).integers(-1, 2, size=points.shape)
             for i in range(RUNS)] + [np.ones(points.shape), -np.ones(points.shape)]
    *ulp, up, down = [largest_moves(_sweep_in_process(name, tmp / "ulp.csv",
                                                      move_ulps(points, s)), pinned)
                      for s in steps]
    blas1 = largest_moves(_run_pin(name, tmp / "blas1.csv", 1), pinned)
    columns = {}
    for key in up:
        moves = [run[key] for run in ulp]
        columns[key] = {"ulp": [min(moves), max(moves)], "up": up[key], "down": down[key],
                        "blas1": blas1[key],
                        "floor": max(moves + [up[key], down[key], blas1[key]])}
    return {"columns": columns}


def print_table(floors):
    print(f"{'pin':<20} {'column':<14} {'random ulp moves':>21} {'+1 ulp':>9} {'-1 ulp':>9} "
          f"{'blas1':>9} {'floor':>9}")
    for name, pin in floors.items():
        for key, f in pin["columns"].items():
            lo, hi = f["ulp"]
            print(f"{name:<20} {key:<14} {lo:9.2e} to {hi:9.2e} {f['up']:9.2e} "
                  f"{f['down']:9.2e} {f['blas1']:9.2e} {f['floor']:9.2e}")


def main():
    if sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/golden_floor.py")
    with tempfile.TemporaryDirectory() as tmp:
        floors = {name: pin_floor(name, Path(tmp)) for name in PINS_2D}
    print_table(floors)
    FLOOR_PATH.write_text(json.dumps(floors, indent=1) + "\n")
    print(f"wrote {FLOOR_PATH}")


if __name__ == "__main__":
    main()
