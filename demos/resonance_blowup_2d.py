"""
Drive a 2:1 ellipse at the eps = -2 plasmon resonance and watch the
interior gradient energy climb like 1/delta as the loss shrinks.

The inclusion scale follows the coupling rule s^2 |ln s| = c delta, so
the frequency correction stays subordinate to the loss everywhere on
the grid.  The sweep writes its CSV and an SVG log-log plot next to
this script unless an output directory is given.
"""

import argparse
import os

from plasmonres.geometry import make_curve, quadrature_nodes
from plasmonres.sweep import SweepConfig, run_sweep
from plasmonres.cli import emit_plot


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--output-dir", default=os.path.dirname(__file__) or ".")
    parser.add_argument("--nodes", type=int, default=128)
    args = parser.parse_args()

    os.makedirs(args.output_dir, exist_ok=True)
    csv_path = os.path.join(args.output_dir, "blowup_2d.csv")
    svg_path = os.path.join(args.output_dir, "blowup_2d.svg")
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), args.nodes)
    config = SweepConfig(
        dim=2, geometry=nodes, eps_c=-2.0, omega0=1.0,
        a=(1.0, 0.0), z=(3.0, 0.0), csv_path=csv_path,
        delta_max=1e-2, delta_min=1e-4, points_per_decade=4,
        solver="both",
    )
    result = run_sweep(config)

    print(f"{'delta':>10} {'s':>12} {'solver':>9} {'energy_norm':>14} {'residual':>10}")
    for row in result.rows:
        print(f"{row.delta:>10.2e} {row.s:>12.4e} {row.solver:>9} "
              f"{row.energy_norm:>14.6e} {row.residual:>10.1e}")
    lo, hi = result.slope_interval
    print(f"\nverdict: {result.verdict}")
    print(f"fitted slope {result.slope:.4f}, 95% interval [{lo:.4f}, {hi:.4f}]")
    print(f"rows written to {csv_path}")
    emit_plot(csv_path, svg_path)
    print(f"plot written to {svg_path}")


if __name__ == "__main__":
    main()
