"""
What the package loads, and when.

`import plasmonres` pays for every module the package loads, in every
command-line run and every benchmark sample, so the heavy scipy
subpackages the package does not use stay out of it. A sweep imports
nothing on its own: a lazy import inside the sweep path would be paid
inside the timed sweep; the sweep check covers a 2D sweep with and
without the look-ahead operator pool. Both checks run in a fresh
interpreter, because the test process has already imported whatever
other tests use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import plasmonres

_PACKAGE_ROOT = str(Path(plasmonres.__file__).resolve().parents[1])

_UNUSED_SUBPACKAGES = ("scipy.stats", "scipy.optimize", "scipy.interpolate",
                       "scipy.ndimage", "scipy.spatial", "scipy.sparse")

_SWEEP_SCRIPT = """
import json, sys
from plasmonres import SweepConfig, make_curve, quadrature_nodes, run_sweep
from plasmonres import sweep
# two CPUs whatever the machine: workers=1 gets the look-ahead operator pool,
# workers=2 none
sweep._cores = lambda: 2
common = dict(eps_c=-2.0, omega0=1.0, delta_max=1e-2, delta_min=1e-4,
              points_per_decade=2)
nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 64)
ellipses = [SweepConfig(dim=2, geometry=nodes, a=(1.0, 0.0), z=(3.0, 0.0),
                        csv_path=path, workers=workers, **common)
            for path, workers in ((sys.argv[1], 2), (sys.argv[3], 1))]
sphere = SweepConfig(dim=3, geometry=(8, 1.0), a=(0.0, 0.0, 1.0),
                     z=(0.0, 0.0, 2.0), csv_path=sys.argv[2], **common)
before = set(sys.modules)
verdicts = [run_sweep(config).verdict for config in (*ellipses, sphere)]
print(json.dumps({"verdicts": verdicts,
                  "imported": sorted(set(sys.modules) - before)}))
"""


def _fresh_python(*args):
    pythonpath = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_unused_scipy_subpackages_out():
    loaded = _fresh_python(
        "-c", "import json, sys, plasmonres; print(json.dumps(sorted(sys.modules)))")
    assert "plasmonres.sweep" in loaded
    assert [name for name in _UNUSED_SUBPACKAGES if name in loaded] == []


def test_run_sweep_imports_no_module(tmp_path):
    out = _fresh_python("-c", _SWEEP_SCRIPT, str(tmp_path / "ellipse.csv"),
                        str(tmp_path / "sphere.csv"),
                        str(tmp_path / "ellipse-pooled.csv"))
    assert out["verdicts"] == ["resonant", "resonant", "resonant"]
    assert out["imported"] == []
