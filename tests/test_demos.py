"""
Smoke tests of the narrative demos: each one runs at its defaults, so a
demo cannot stop working unnoticed.
"""

import importlib.util
import sys
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


def test_quasistatic_vs_direct_3d_coupling_distance_law(capsys, monkeypatch):
    # doubling the dipole distance divides a degree-n mode's quasi-static
    # coupling by exactly 2^(n+2), in the values the demo prints
    demo = _load("quasistatic_vs_direct_3d")
    calls = []

    def recording(*args, _original=demo.coupling_an):
        out = _original(*args)
        calls.append(out[1])
        return out

    monkeypatch.setattr(demo, "coupling_an", recording)
    demo.coupling_distance_law()
    near, far = calls
    lines = capsys.readouterr().out.strip().splitlines()
    degrees = [int(line.split()[0]) for line in lines[1:]]
    assert degrees == [1, 2, 3]
    for n, a_near, a_far in zip(degrees, near, far):
        assert abs(a_near / a_far - 2.0 ** (n + 2)) <= 1e-12 * 2.0 ** (n + 2)


def test_resonance_blowup_2d_main(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["resonance_blowup_2d", "--output-dir",
                                      str(tmp_path)])
    _load("resonance_blowup_2d").main()
    out = capsys.readouterr().out
    assert "verdict: resonant" in out
    assert (tmp_path / "blowup_2d.csv").exists()
    assert (tmp_path / "blowup_2d.svg").exists()


def test_spectrum_tables(capsys):
    # every computed eigenvalue matches its closed form to ten digits
    demo = _load("spectrum_tables")
    demo.ellipse_table()
    demo.sphere_table()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    errors = [float(row[-1]) for row in rows if row and row[0].isdigit()]
    assert len(errors) == 13 + 5
    assert max(errors) < 1e-10
