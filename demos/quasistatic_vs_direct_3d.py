"""
Compare the dense Helmholtz solve against the spectral closed form for
a dipole over a resonant sphere, across three decades of loss.

The closed form drops coupling corrections of relative size s/delta.
With s = c delta that gap is a constant 10 c allowance, and the
measured disagreement should sit far below it.  The second table shows
the quasi-static coupling a_n obeying its exact distance law
z^-(n + 2).
"""

import numpy as np

from plasmonres.np_spectrum import sphere_spectrum
from plasmonres.sweep import PointContext, solve_point
from plasmonres.transmission import TransmissionProblem, coupling_an

DEGREE, RADIUS, COUPLING_C = 12, 1.0, 0.01


def compare_solvers():
    ctx = PointContext(sphere_spectrum(DEGREE, RADIUS))
    axis = np.array([0.0, 0.0, 1.0])
    print(f"{'delta':>10} {'direct':>14} {'spectral':>14} {'rel gap':>10} {'bound':>8}")
    for delta in (1e-2, 1e-3, 1e-4, 1e-5):
        s = COUPLING_C * delta
        problem = TransmissionProblem(
            dim=3, geometry=(DEGREE, RADIUS), s=s, delta=delta, eps_c=-2.0,
            omega0=1.0, a=axis, z=2.0 * axis,
        )
        rows, errors = solve_point(problem, ctx, ("direct", "spectral"))
        for error in errors:
            if error is not None:
                raise error
        e_d, e_s = (row.energy_norm for row in rows)
        gap = abs(e_d - e_s) / e_d
        print(f"{delta:>10.1e} {e_d:>14.6e} {e_s:>14.6e} {gap:>10.2e} "
              f"{10.0 * s / delta:>8.2f}")
    print()


def coupling_distance_law():
    spectrum = sphere_spectrum(DEGREE, RADIUS)
    axis = np.array([0.0, 0.0, 1.0])
    print(f"{'degree':>7} {'a_n(z=2)':>14} {'a_n(z=4)':>14} {'ratio':>10} {'2^(n+2)':>9}")
    for slot, degree in ((2, 1), (6, 2), (12, 3)):
        _, near = coupling_an(2.0 * axis, axis, slot, spectrum, 0.05)
        _, far = coupling_an(4.0 * axis, axis, slot, spectrum, 0.05)
        print(f"{degree:>7} {near.real:>14.6e} {far.real:>14.6e} "
              f"{(near / far).real:>10.4f} {2.0 ** (degree + 2):>9.1f}")


if __name__ == "__main__":
    compare_solvers()
    coupling_distance_law()
