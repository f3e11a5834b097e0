"""
Correctness gate for one sweep sample.

A row fails when any numeric cell is NaN, when its residual is above
the 1e-8 fit tolerance, or, on seed 0, when any cell other than
wall_time_ms and residual drifts from the pinned reference CSV by more
than 1e-12 relative. Rows missing from the CSV count as failed. The
sample as a whole also needs the workload's verdict, a slope inside
its window and, where the workload gates it, a direct-vs-spectral
energy_norm gap at or below the gate.
"""

import csv
import math
import os

RESIDUAL_TOL = 1e-8
REL_TOL = 1e-12
UNCOMPARED = ("wall_time_ms", "residual")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.csv")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b):
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def row_problems(row, ref):
    """Reasons one CSV row fails; empty when it passes."""
    out = []
    for key, value in row.items():
        if key != "solver" and math.isnan(float(value)):
            out.append(f"{key} is NaN")
    residual = float(row["residual"])
    if not residual <= RESIDUAL_TOL:
        out.append(f"residual {residual:.3g} above {RESIDUAL_TOL:g}")
    if ref is not None:
        for key, value in row.items():
            if key in UNCOMPARED:
                continue
            same = value == ref[key] if key == "solver" else _close(value, ref[key])
            if not same:
                out.append(f"{key} {value} differs from reference {ref[key]}")
    return out


def energy_gap(rows):
    """Largest |direct - spectral| / direct energy_norm over the grid."""
    by_delta = {}
    for r in rows:
        by_delta.setdefault(r["delta"], {})[r["solver"]] = float(r["energy_norm"])
    gaps = [abs(p["direct"] - p["spectral"]) / abs(p["direct"])
            for p in by_delta.values() if "direct" in p and "spectral" in p]
    return max(gaps) if gaps else math.nan


def check_sample(workload, csv_path, sample, reference=None):
    """
    Judge one sample. `sample` is the line sample.py printed; reference
    is the pinned row list (seed 0 only) or None. Returns a dict with
    rows attempted, rows failed, the energy gap and a problem list
    (empty when the sample passes).
    """
    expected = 2 * sample["grid_points"]
    rows = read_rows(csv_path)
    problems = []
    failed = 0
    if reference is not None and len(reference) != expected:
        problems.append(f"reference has {len(reference)} rows, sweep {expected}")
    for i, row in enumerate(rows):
        ref = reference[i] if reference is not None and i < len(reference) else None
        why = row_problems(row, ref)
        if why:
            failed += 1
            problems.append(f"row {i}: " + "; ".join(why))
    if len(rows) != expected:
        failed += abs(expected - len(rows))
        problems.append(f"{len(rows)} rows written, {expected} expected")

    if sample["verdict"] != workload.verdict:
        problems.append(f"verdict {sample['verdict']}, expected {workload.verdict}")
    lo, hi = workload.slope_window
    slope = sample["slope"]
    if slope is None or not lo <= slope <= hi:
        problems.append(f"slope {slope} outside [{lo}, {hi}]")
    gap = energy_gap(rows)
    if workload.gap_gate is not None and not gap <= workload.gap_gate:
        problems.append(f"energy gap {gap:.3g} above {workload.gap_gate}")
    return {"rows": expected, "failed": min(failed, expected),
            "energy_gap": gap, "problems": problems}


def same_cells(path_a, path_b):
    """True when two sweep CSVs agree byte for byte outside wall_time_ms."""
    def cells(path):
        return [{k: v for k, v in r.items() if k != "wall_time_ms"}
                for r in read_rows(path)]

    return cells(path_a) == cells(path_b)
