"""
Golden pins: sweeps whose CSV cells must not drift.

Each pinned CSV under tests/golden/ was written by the code before a
refactor. Three are small 2D sweeps (five points each); four are the
acceptance sweeps of tests/test_acceptance.py (a sphere at L=12 and the
N=256 ellipse, each at a resonant and an off-resonant contrast, 13
points each). A sweep must reproduce every cell except wall_time_ms to
1e-12 relative (the solver column exactly).

The sweeps run as `python -m plasmonres sweep` in a fresh interpreter
with a fixed OpenBLAS thread count per run. Every pin runs with two
threads, the setting the pins were written with: other thread counts
reorder BLAS reductions and move the cancellation-prone cells (the
ellipse's phi0_hat_abs, the kite's a_n_abs) by a few 1e-11 relative.
The circle pin runs with one thread as well. There eigh returns another
basis of the degenerate eigenspace of the n >= 1 modes, and a_n_abs, the
norm of the couplings over that whole space, must not move; its cells
agree to about 1e-15, and only the residual column, rounding at the
1e-14 level, is left out of that run. Update a pin only together with
an explanation of the drift; rewrite the named pins, or all of them
when none is named, with

    PYTHONPATH=src python tests/test_golden.py --write [NAME ...]

A refactor that claims to keep every cell is checked byte for byte
against another checkout of the package, its parent, with

    PYTHONPATH=src python tests/test_golden.py --against ROOT [NAME ...]

which sweeps each named pin (all when none is named) once with this
tree's src/ and once with ROOT/src, prints every cell whose text
differs, residual included and wall_time_ms left out, then runs
`python -m plasmonres validate all` in both trees with the pins' thread
count and prints every check whose JSON differs. It exits 1 if any cell
or check does.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

import plasmonres

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-12
IGNORED = ("wall_time_ms",)
BLAS_THREADS = 2


def _sweep(geometry, eps_c, omega0, a, z, workers=1):
    # 5 grid points over two decades, both solvers
    return {"dim": 2, "geometry": geometry, "eps_c": eps_c, "omega0": omega0,
            "a": a, "z": z, "delta_max": 1e-2, "delta_min": 1e-4,
            "points_per_decade": 2, "solver": "both", "workers": workers}


def _acceptance(geometry, eps_c, a, z):
    # the acceptance fixtures: 13 grid points over three decades, 4 workers
    return dict(_sweep(geometry, eps_c, 1.0, a, z, workers=4), dim=len(a),
                delta_min=1e-5, points_per_decade=4)


_SPHERE_L12 = {"kind": "sphere", "radius": 1.0, "degree": 12}
_ELLIPSE_N256 = {"kind": "ellipse", "a": 2.0, "b": 1.0, "n": 256}


PINS = {
    "ellipse-n64": _sweep({"kind": "ellipse", "a": 2.0, "b": 1.0, "n": 64},
                          -2.0, 1.0, [1.0, 0.0], [3.0, 0.0]),
    # omega reaches 0.43: the high-frequency side of every 2D kernel
    "kite-n256": _sweep({"kind": "kite", "n": 256},
                        -3.0, 100.0, [1.0, 0.0], [2.5, 0.0], workers=2),
    "circle-n128": _sweep({"kind": "circle", "radius": 1.5, "n": 128},
                          -2.0, 1.0, [1.0, 0.0], [3.0, 0.0]),
    "sphere-l12-eps2": _acceptance(_SPHERE_L12, -2.0, [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]),
    "sphere-l12-eps5": _acceptance(_SPHERE_L12, -5.0, [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]),
    "ellipse-n256-eps2": _acceptance(_ELLIPSE_N256, -2.0, [1.0, 0.0], [3.0, 0.0]),
    "ellipse-n256-eps3": _acceptance(_ELLIPSE_N256, -3.0, [1.0, 0.0], [3.0, 0.0]),
}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# (pin, OpenBLAS threads, columns left out of the comparison)
RUNS = [pytest.param(name, BLAS_THREADS, IGNORED, id=name) for name in sorted(PINS)] + [
    pytest.param("circle-n128", 1, IGNORED + ("residual",), id="circle-n128-blas1")]


def cell_drift(rows, pinned, ignored=IGNORED):
    """Cells of rows that differ from pinned beyond REL_TOL; empty when equal."""
    if len(rows) != len(pinned):
        return [f"{len(rows)} rows, pinned {len(pinned)}"]
    out = []
    for i, (row, ref) in enumerate(zip(rows, pinned)):
        if list(row) != list(ref):
            out.append(f"row {i}: columns {list(row)}, pinned {list(ref)}")
            continue
        for key in row:
            if key in ignored:
                continue
            a, b = row[key], ref[key]
            if key == "solver":
                same = a == b
            else:
                x, y = float(a), float(b)
                same = x == y or (math.isfinite(x) and math.isfinite(y)
                                  and abs(x - y) <= REL_TOL * max(abs(x), abs(y)))
            if not same:
                out.append(f"row {i} {key}: {a}, pinned {b}")
    return out


PACKAGE_ROOT = Path(plasmonres.__file__).resolve().parents[1]


def _run_pin(name, csv_path, threads=BLAS_THREADS, package_root=PACKAGE_ROOT):
    """
    Sweep one pin through the CLI in a fresh interpreter with the given
    OpenBLAS thread count, importing plasmonres from package_root (the
    directory that holds the package); returns its rows.
    """
    config_path = Path(csv_path).with_suffix(".json")
    config_path.write_text(json.dumps(dict(PINS[name], csv_path=str(csv_path))))
    proc = _cli(["sweep", "--config", str(config_path)], threads, package_root)
    assert proc.returncode == 0, proc.stderr
    config_path.unlink()
    return _read(csv_path)


def _cli(args, threads, package_root):
    """`python -m plasmonres ARGS` in a fresh interpreter, as _run_pin describes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(package_root), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "plasmonres", *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name, threads, ignored", RUNS)
def test_sweep_matches_golden_pin(name, threads, ignored, tmp_path):
    rows = _run_pin(name, tmp_path / f"{name}.csv", threads)
    assert cell_drift(rows, _read(GOLDEN_DIR / f"{name}.csv"), ignored) == []


def test_cell_drift_comparator():
    pinned = [{"delta": "0.01", "energy_norm": "2.0", "solver": "direct",
               "wall_time_ms": "1.000"}]
    same = [dict(pinned[0], wall_time_ms="9.999")]
    assert cell_drift(same, pinned) == []
    tiny = [dict(pinned[0], energy_norm=repr(2.0 * (1 + 5e-13)))]
    assert cell_drift(tiny, pinned) == []
    moved = [dict(pinned[0], energy_norm=repr(2.0 * (1 + 5e-12)))]
    assert len(cell_drift(moved, pinned)) == 1
    assert len(cell_drift([dict(pinned[0], energy_norm="nan")], pinned)) == 1
    assert len(cell_drift([dict(pinned[0], solver="spectral")], pinned)) == 1
    assert len(cell_drift(pinned + pinned, pinned)) == 1


def _differing_cells(root, names):
    """Print each cell of the named pins whose text differs at root; count them."""
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            here = _run_pin(name, Path(tmp) / f"{name}.csv")
            there = _run_pin(name, Path(tmp) / f"{name}-root.csv", package_root=root / "src")
            for i, (row, ref) in enumerate(zip_longest(here, there, fillvalue={})):
                for key in dict.fromkeys([*row, *ref]):
                    if key not in IGNORED and row.get(key) != ref.get(key):
                        print(f"{name} row {i} {key}: {row.get(key)}, at {root}: {ref.get(key)}")
                        count += 1
            print(f"{name}: {len(here)} rows here, {len(there)} at {root}")
    return count


def _validate_checks(package_root):
    """{name: check} of `validate all` at BLAS_THREADS, failed checks included."""
    proc = _cli(["validate", "all"], BLAS_THREADS, package_root)
    assert proc.returncode in (0, plasmonres.EXIT_VALIDATION), proc.stderr
    return {check["name"]: check for check in json.loads(proc.stdout)["checks"]}


def _differing_checks(root):
    """Print each `validate all` check whose JSON differs at root; count them."""
    here, there = _validate_checks(PACKAGE_ROOT), _validate_checks(root / "src")
    count = 0
    for name in dict.fromkeys([*here, *there]):
        if here.get(name) != there.get(name):
            print(f"validate {name}: {here.get(name)}, at {root}: {there.get(name)}")
            count += 1
    print(f"validate all: {len(here)} checks here, {len(there)} at {root}")
    return count


if __name__ == "__main__":
    mode, names, root = sys.argv[1:2], sys.argv[2:], None
    if mode == ["--against"] and names:
        root, names = Path(names[0]).resolve(), names[1:]
    if not (mode == ["--write"] or root) or not set(names) <= set(PINS):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write [NAME ...]\n"
                 "       PYTHONPATH=src python tests/test_golden.py --against ROOT [NAME ...]")
    if root:
        count = _differing_cells(root, names or sorted(PINS))
        print(f"{count} differing cells")
        checks = _differing_checks(root)
        print(f"{checks} differing validate checks")
        sys.exit(1 if count or checks else 0)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for pin in names or sorted(PINS):
        _run_pin(pin, GOLDEN_DIR / f"{pin}.csv")
        print(f"wrote {GOLDEN_DIR / pin}.csv")
