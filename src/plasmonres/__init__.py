"""
Plasmon resonance toolkit: Neumann-Poincare spectra on smooth
boundaries, Helmholtz transmission solves for a dipole source near a
small lossy inclusion, and loss sweeps that classify the interior
field blow-up.

The public surface is each layer's __all__, re-exported here in layer
order; every name has one owning layer:

geometry      boundary curves, quadrature nodes, interior grids
specfun       2D free-space kernels and stable Bessel helpers
layer_ops     single/double layer potentials, static and Helmholtz
np_spectrum   the spectral decomposition of the boundary operator
transmission  the dipole transmission problem and its two solvers
sweep         loss sweeps, blow-up rate fits, verdicts
cli           command line front end, validation suites, SVG plots
"""

from . import geometry, specfun, layer_ops, np_spectrum, transmission, sweep, cli
from .geometry import *
from .specfun import *
from .layer_ops import *
from .np_spectrum import *
from .transmission import *
from .sweep import *
from .cli import *

__version__ = "0.1.0"

__all__ = [name for layer in (geometry, specfun, layer_ops, np_spectrum, transmission,
                              sweep, cli)
           for name in layer.__all__] + ["__version__"]
