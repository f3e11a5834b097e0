"""
A mutation survey of Tier-1: does the suite fail when a guard or a
constant of the package moves?

Each entry of MUTANTS names one mutant, a (file, old, new) triple: in a
scratch copy of the repository, the text old, which must occur exactly
once in src/plasmonres/<file>, is replaced by new, and Tier-1 runs there
with -x. The mutant is killed when Tier-1 fails, and the first failing
test is printed; it survives when Tier-1 passes. The copy is made once,
each mutant is applied to the pristine file and undone after its run.

    python tests/mutation_survey.py              # every mutant
    python tests/mutation_survey.py NAME [...]   # a subset by name

An unknown name, or a triple whose old text does not occur exactly once,
stops the survey before any run. The exit status is 1 when a mutant
survives. Each mutant costs one Tier-1 run, about 30 s on a 2-vCPU host.
This is tooling outside Tier-1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "plasmonres")

MUTANTS = {
    # the eight mutants of the first, hand-run survey (ROADMAP item 20)
    "slot-pivot-tie": (
        "transmission.py",
        "swap = np.abs(a21.real) + np.abs(a21.imag) > np.abs(a11.real)",
        "swap = np.abs(a21.real) + np.abs(a21.imag) >= np.abs(a11.real)"),
    "resonant-window": (
        "sweep.py", "_RESONANT_WINDOW = (-1.15, -0.85)", "_RESONANT_WINDOW = (-1.25, -0.85)"),
    "invalid-fraction": (
        "sweep.py", "_MAX_INVALID_FRACTION = 0.3", "_MAX_INVALID_FRACTION = 0.35"),
    "expansion-tol": ("np_spectrum.py", "_EXPANSION_TOL = 1e-6", "_EXPANSION_TOL = 1e-3"),
    "denominator-guard": ("transmission.py", "_DENOM_GUARD = 1e-14", "_DENOM_GUARD = 1e-13"),
    "series-stop": (
        "specfun.py", "r2max**m * (1.0 + harmonic) < 1e-20", "r2max**m * (1.0 + harmonic) < 1e-14"),
    "collar-curvature-sign": (
        "transmission.py", "f_edge * (1.0 - b * nodes.curvatures)",
        "f_edge * (1.0 + b * nodes.curvatures)"),
    "sphere-kR-bound": ("layer_ops.py", "if abs(k) * R > 10.0:", "if abs(k) * R > 12.0:"),
    # the dipole guards, each kept once, in TransmissionProblem
    "dipole-inside": (
        "transmission.py", "if _inside_polygon(z[None, :], nodes.points)[0]:",
        "if False and _inside_polygon(z[None, :], nodes.points)[0]:"),
    "quadrature-buffer": (
        "transmission.py", "if gap < 2.0 * nodes.spacing:", "if gap < 1.0 * nodes.spacing:"),
    "sphere-axis": (
        "transmission.py", "np.linalg.norm(z - z0 * self.a) > 1e-10 * (1.0 + z0)",
        "np.linalg.norm(z - z0 * self.a) > 1e10 * (1.0 + z0)"),
    "sphere-side": ("transmission.py", "if not z0 > 0 or", "if not z0 != 0 or"),
    "sphere-margin": ("transmission.py", "_SPHERE_MARGIN = 1.05", "_SPHERE_MARGIN = 1.0"),
    # the coupling's spectrum must be of the problem's geometry
    "spectrum-geometry": (
        "transmission.py", "if spectrum.geometry != problem.geometry:",
        "if spectrum.dim != problem.dim:"),
}


def selected(names):
    """The MUTANTS entries named, all of them when names is empty."""
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}")
    return {name: MUTANTS[name] for name in names or MUTANTS}


def check_applies(mutants):
    """Stop unless each mutant's old text occurs once in its file."""
    for name, (file, old, _) in mutants.items():
        count = (ROOT / PACKAGE / file).read_text().count(old)
        if count != 1:
            sys.exit(f"{name}: the old text occurs {count} times in {file}")


def first_failure(output):
    """The first FAILED or ERROR test of pytest's short summary, else its last line."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    lines = output.strip().splitlines()
    return found.group(1) if found else (lines[-1] if lines else "no output")


def run_tier1(copy):
    """Tier-1 in copy with -x: (passed, pytest output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode == 0, proc.stdout + proc.stderr


def main(names):
    mutants = selected(names)
    check_applies(mutants)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out"))
        for name, (file, old, new) in mutants.items():
            path = copy / PACKAGE / file
            pristine = path.read_text()
            path.write_text(pristine.replace(old, new))
            try:
                passed, output = run_tier1(copy)
            finally:
                path.write_text(pristine)
            if passed:
                survivors.append(name)
                print(f"{name:24s} survived", flush=True)
            else:
                print(f"{name:24s} killed by {first_failure(output)}", flush=True)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
