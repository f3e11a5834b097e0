"""
Plasmon resonance toolkit: Neumann-Poincare spectra on smooth
boundaries, Helmholtz transmission solves for a dipole source near a
small lossy inclusion, and loss sweeps that classify the interior
field blow-up.

The public surface re-exported here is organised by layer:

geometry      boundary curves, quadrature nodes, interior grids
layer_ops     single/double layer potentials, static and Helmholtz
specfun       fundamental solutions and stable Bessel helpers
np_spectrum   the spectral decomposition of the boundary operator
transmission  the dipole transmission problem and its two solvers
sweep         loss sweeps, blow-up rate fits, verdicts
cli           command line front end, validation suites, SVG plots
"""

from .geometry import (
    BoundaryCurve,
    NodeSet,
    Sphere,
    InteriorPointSet,
    make_curve,
    quadrature_nodes,
    interior_points,
)
from .specfun import (
    gamma_laplace,
    gamma_helmholtz,
    grad_gamma_laplace,
    grad_gamma_helmholtz,
    hankel_first_kind,
    tau,
    tau_kc,
    compute_kc,
    OMEGA_MAX,
)
from .layer_ops import (
    BoundaryOperator,
    assemble_S,
    assemble_Kstar,
    assemble_S_omega,
    assemble_Kstar_omega,
    eval_potential,
    eval_gradient,
    sphere_operators,
)
from .np_spectrum import (
    NPSpectrum,
    spectrum_of,
    sphere_spectrum,
    coeffs_hat,
    coeffs_check,
)
from .transmission import (
    TransmissionProblem,
    SolutionPair,
    plasmon_lambda,
    plasmon_epsilon,
    dipole_traces,
    assemble_system,
    solve_direct,
    solve_spectral,
    gradient_energy,
    interior_gradient_energy,
    coupling_an,
)
from .sweep import (
    SweepConfig,
    SweepRow,
    SweepResult,
    CSV_COLUMNS,
    run_sweep,
    fit_blowup_rate,
    scale_for_delta,
)
from .cli import main, validate, emit_plot, load_sweep_config

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "NodeSet",
    "Sphere",
    "InteriorPointSet",
    "make_curve",
    "quadrature_nodes",
    "interior_points",
    "gamma_laplace",
    "gamma_helmholtz",
    "grad_gamma_laplace",
    "grad_gamma_helmholtz",
    "hankel_first_kind",
    "tau",
    "tau_kc",
    "compute_kc",
    "OMEGA_MAX",
    "BoundaryOperator",
    "assemble_S",
    "assemble_Kstar",
    "assemble_S_omega",
    "assemble_Kstar_omega",
    "eval_potential",
    "eval_gradient",
    "sphere_operators",
    "NPSpectrum",
    "spectrum_of",
    "sphere_spectrum",
    "coeffs_hat",
    "coeffs_check",
    "TransmissionProblem",
    "SolutionPair",
    "plasmon_lambda",
    "plasmon_epsilon",
    "dipole_traces",
    "assemble_system",
    "solve_direct",
    "solve_spectral",
    "gradient_energy",
    "interior_gradient_energy",
    "coupling_an",
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "CSV_COLUMNS",
    "run_sweep",
    "fit_blowup_rate",
    "scale_for_delta",
    "main",
    "validate",
    "emit_plot",
    "load_sweep_config",
    "__version__",
]
