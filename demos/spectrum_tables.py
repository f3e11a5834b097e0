"""
Print the computed spectra of the 2:1 ellipse and the unit sphere next
to their closed forms.

The ellipse carries simple pairs -+ (1/2) r^n with r = (a - b)/(a + b);
the sphere carries 1/(2(2n + 1)) with multiplicity 2n + 1.  Both tables
should agree to ten digits at the resolutions used here.
"""

import numpy as np

from plasmonres.geometry import Sphere, make_curve, quadrature_nodes
from plasmonres.layer_ops import sphere_degree_index
from plasmonres.np_spectrum import sphere_spectrum, spectrum_of


def ellipse_table(a=2.0, b=1.0, n_nodes=256, n_pairs=6):
    nodes = quadrature_nodes(make_curve("ellipse", a=a, b=b), n_nodes)
    spec = spectrum_of(nodes)
    ratio = (a - b) / (a + b)
    print(f"ellipse a={a} b={b}  ({n_nodes} nodes, c0={spec.c0:.6f}, "
          f"patched={spec.c0_h == 0.0})")
    print(f"{'slot':>4} {'computed':>18} {'closed form':>18} {'error':>10}")
    print(f"{0:>4} {spec.lambdas[0]:>18.12f} {0.5:>18.12f} "
          f"{abs(spec.lambdas[0] - 0.5):>10.1e}")
    for n in range(1, n_pairs + 1):
        exact = 0.5 * ratio ** n
        for slot, sign in ((2 * n - 1, -1.0), (2 * n, 1.0)):
            val = spec.lambdas[slot]
            print(f"{slot:>4} {val:>18.12f} {sign * exact:>18.12f} "
                  f"{abs(val - sign * exact):>10.1e}")
    print()


def sphere_table(degree=8, n_show=4):
    spec = sphere_spectrum(Sphere(degree, 1.0))
    print(f"sphere (degree cutoff {degree})")
    print(f"{'n':>3} {'mult':>5} {'computed':>18} {'closed form':>18} {'error':>10}")
    for n in range(n_show + 1):
        slots = np.where(sphere_degree_index(degree) == n)[0]
        vals = spec.lambdas[slots]
        exact = 0.5 if n == 0 else 1.0 / (2.0 * (2.0 * n + 1.0))
        err = float(np.max(np.abs(vals - exact)))
        print(f"{n:>3} {len(slots):>5} {vals[0]:>18.12f} {exact:>18.12f} "
              f"{err:>10.1e}")
    print()


if __name__ == "__main__":
    ellipse_table()
    sphere_table()
