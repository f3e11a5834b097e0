"""
Benchmark workloads: one loss sweep each, written as the JSON-style
dict that `plasmonres.load_sweep_config` accepts.

Seed 0 gives the pinned configuration exactly. Any other seed moves
the dipole by up to +-5% along its own axis and shifts the whole delta
grid down by less than one grid step, so delta_max never exceeds 1e-2
(on the kite that keeps omega = s * omega0 below OMEGA_MAX). Non-zero
seeds are judged on the invariants only: verdict, slope window and
residuals.
"""

import random
from dataclasses import dataclass

DELTA_MAX = 1e-2
DELTA_MIN = 1e-5
POINTS_PER_DECADE = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict          # seed-0 sweep config without csv_path
    smoke: dict           # small variant of config for the self-test
    verdict: str          # expected verdict on every seed
    slope_window: tuple   # fitted slope must lie inside, every seed
    gap_gate: float       # max direct-vs-spectral energy_norm gap, or None


def _sweep(dim, geometry, eps_c, omega0, a, z, workers):
    return {
        "dim": dim, "geometry": geometry, "eps_c": eps_c, "omega0": omega0,
        "a": a, "z": z, "delta_max": DELTA_MAX, "delta_min": DELTA_MIN,
        "points_per_decade": POINTS_PER_DECADE, "solver": "both",
        "workers": workers,
    }


def _smoke(config, geometry):
    # 5 points over two decades: the fewest the rate fit accepts
    return dict(config, geometry=geometry, delta_min=1e-4, points_per_decade=2)


_ELLIPSE = _sweep(2, {"kind": "ellipse", "a": 2.0, "b": 1.0, "n": 256},
                  -2.0, 1.0, [1.0, 0.0], [3.0, 0.0], 1)
_SPHERE = _sweep(3, {"kind": "sphere", "radius": 1.0, "degree": 40},
                 -2.0, 1.0, [0.0, 0.0, 1.0], [0.0, 0.0, 2.0], 1)
_KITE = _sweep(2, {"kind": "kite", "n": 256},
               -3.0, 100.0, [1.0, 0.0], [2.5, 0.0], 2)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ellipse2d-resonant",
            "2D headline: Helmholtz assembly, Hankel volume term and NP "
            "eigendecomposition dominate; sphere code idle",
            _ELLIPSE,
            _smoke(_ELLIPSE, {"kind": "ellipse", "a": 2.0, "b": 1.0, "n": 64}),
            "resonant", (-1.05, -0.95), 0.1),
        Workload(
            "sphere3d-L40",
            "sphere at degree 40: dense LU on diagonal 3362^2 blocks, "
            "diagonal matvecs and scalar Bessel calls dominate; 2D code idle",
            _SPHERE,
            _smoke(_SPHERE, {"kind": "sphere", "radius": 1.0, "degree": 8}),
            "resonant", (-1.05, -0.95), 0.1),
        Workload(
            "kite2d-hifreq-pool",
            "2D off resonance at omega up to 0.43, outside the low-frequency "
            "regime, on a 2-thread worker pool",
            _KITE,
            # the kite's concave side needs N=256 for its collar points
            _smoke(_KITE, _KITE["geometry"]),
            "bounded", (-0.1, 0.1), None),
    )
}


def sweep_config(name, seed, csv_path, smoke=False):
    """Sweep config dict of one workload at one seed, writing to csv_path."""
    w = WORKLOADS[name]
    config = dict(w.smoke if smoke else w.config, csv_path=str(csv_path))
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        stretch = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
        shift = 10.0 ** (-rng.random() / config["points_per_decade"])
        config["z"] = [c * stretch for c in config["z"]]
        config["delta_max"] *= shift
        config["delta_min"] *= shift
    return config
