"""
Smoke tests of the narrative demos: each one runs at its defaults, so a
demo cannot stop working unnoticed.
"""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quasistatic_vs_direct_3d_compare_solvers(capsys):
    # one row per loss, and the direct-vs-spectral gap of each sits
    # inside the s/delta allowance it is printed against
    _load("quasistatic_vs_direct_3d").compare_solvers()
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["delta", "direct", "spectral", "rel", "gap", "bound"]
    rows = [[float(v) for v in line.split()] for line in lines[1:]]
    assert [r[0] for r in rows] == [1e-2, 1e-3, 1e-4, 1e-5]
    assert all(0.0 <= gap <= bound for *_, gap, bound in rows)
