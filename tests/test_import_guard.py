"""
What the package loads, and when.

`import plasmonres` pays for every module the package loads, in every
command-line run and every benchmark sample, so the heavy scipy
subpackages the package does not use stay out of it. A sweep imports
nothing on its own: a lazy import inside the sweep path would be paid
inside the timed sweep; the sweep check covers a 2D sweep, whose
operators a pool of threads builds, and a sphere sweep. Nor does the
import compute: it makes no LAPACK eigenvalue call. The checks run in
a fresh interpreter, because the test process has already imported
whatever other tests use.
Every name a module lists in __all__ exists: perfbench's tracer wraps
each of them, so a stale entry would break a traced benchmark run. Each
public name is listed by one layer, and the package exports it. Every
name in specfun's __all__ has a caller in another module of the
package, so a kernel that loses its last caller shows here, and every
top-level function or class outside its module's __all__ is named by
some code of the package beyond its own definition, so a private helper
that loses its last caller shows too.
"""

import ast
from collections import Counter
import importlib
import json
import os
import pkgutil
import re
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
common = dict(eps_c=-2.0, omega0=1.0, delta_max=1e-2, delta_min=1e-4,
              points_per_decade=2)
nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 64)
ellipse = SweepConfig(dim=2, geometry=nodes, a=(1.0, 0.0), z=(3.0, 0.0),
                      csv_path=sys.argv[1], **common)
sphere = SweepConfig(dim=3, geometry=(8, 1.0), a=(0.0, 0.0, 1.0),
                     z=(0.0, 0.0, 2.0), csv_path=sys.argv[2], **common)
before = set(sys.modules)
verdicts = [run_sweep(config).verdict for config in (ellipse, sphere)]
print(json.dumps({"verdicts": verdicts,
                  "imported": sorted(set(sys.modules) - before)}))
"""

_NO_EIGENVALUES_SCRIPT = """
import json
import numpy.linalg

def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg.eigvalsh called")

numpy.linalg.eigvalsh = refuse
import plasmonres
print(json.dumps(plasmonres.__name__))
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
                        str(tmp_path / "sphere.csv"))
    assert out["verdicts"] == ["resonant", "resonant"]
    assert out["imported"] == []


def test_import_makes_no_eigenvalue_call():
    # a stored rule or table built at import (numpy's leggauss, say)
    # would pay its first LAPACK call (and about 1 MiB) in every process
    assert _fresh_python("-c", _NO_EIGENVALUES_SCRIPT) == "plasmonres"


def test_every_public_name_resolves():
    modules = [plasmonres] + [importlib.import_module(f"plasmonres.{info.name}")
                              for info in pkgutil.iter_modules(plasmonres.__path__)]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__
        checked += len(names)
    assert checked > 50
    # each public name has one owning layer, and the package exports it
    # as that same object
    layers = [module for module in modules[1:] if hasattr(module, "__all__")]
    owned = [name for module in layers for name in module.__all__]
    assert len(set(owned)) == len(owned)
    for module in layers:
        for name in module.__all__:
            assert getattr(plasmonres, name) is getattr(module, name), name


def test_every_kernel_has_a_caller():
    # a kernel in specfun's __all__ that no other module of the package
    # names has lost its last caller, and should go with it
    specfun = plasmonres.specfun
    package = Path(specfun.__file__).parent
    others = "\n".join(path.read_text() for path in sorted(package.glob("*.py"))
                       if path.name != "specfun.py")
    assert [name for name in specfun.__all__
            if not re.search(rf"\b{name}\b", others)] == []


def _names(node):
    """How often each name is read in the code under node (docstrings aside)."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_private_definition_has_a_use():
    # a top-level function or class that its module keeps out of __all__
    # is reached only by name from inside the package; once no code but
    # its own body names it, it is dead and should go with its last caller
    package = Path(plasmonres.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for stem, tree in trees.items():
        module = plasmonres if stem == "__init__" else importlib.import_module(
            f"plasmonres.{stem}")
        public = getattr(module, "__all__", ())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in public
                    and used[node.name] - _names(node)[node.name] <= 0):
                unused.append(f"{stem}.{node.name}")
    assert unused == []
