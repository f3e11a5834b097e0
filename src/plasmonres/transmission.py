"""
Helmholtz transmission problem for a dipole source near a lossy inclusion.

An inclusion of permittivity eps_c + i delta sits in a background of
permittivity eps_m and is driven by a point dipole with moment a at an
exterior point z, at operating frequency omega = s * omega0.  The
boundary is kept at unit scale; the inclusion scale s enters only
through omega, which is how the sweep harness couples the two limits.
All permittivities are normalised by the background internally, so
eps_c/eps_m and delta/eps_m are what the solvers see.

The field is represented by single-layer potentials,

    u = F_z + S^omega[psi]  outside,       u = S^{k_c}[phi]  inside,

with F_z = -a . grad Gamma^omega(. - z) the incident dipole field and
k_c the fourth-quadrant interior wavenumber.  Continuity of Dirichlet
and Neumann data gives a 2x2 block system in (phi, psi).  Two routes
solve it:

* solve_direct solves the full Helmholtz system: densely in 2D, and
  slot by slot as 2x2 systems on the sphere, where every block is
  diagonal.  Valid at any frequency below the quadrature limit.
* solve_spectral solves the low-frequency leading-order system in
  closed form, diagonally in the Neumann-Poincare eigenbasis, in both
  dimensions.  Mode n is divided by

      D_n = (eps + i delta - 1) lambda_n - (eps + i delta + 1) / 2,

  which collapses to i delta (lambda_n - 1/2) exactly when the contrast
  matches an NP eigenvalue: that O(delta) denominator is the resonance
  the energy sweep measures.  In 2D the mean sector does not decouple
  (the log in the fundamental solution couples it to the frequency
  through tau(omega)) and is handled by its own closed formula.

gradient_energy integrates |grad u|^2 over the inclusion from boundary
data via the Green identity

    int |grad u|^2 = Re{ oint u conj(d_nu u|-) dsigma } + Re{k_c^2} int |u|^2;

interior_gradient_energy is the independent interior-quadrature value
it is checked against in 2D.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import NodeSet, Sphere, interior_points, as_number, is_integer, is_number, \
    read_only, _inside_polygon
from .layer_ops import (
    HelmholtzOperators,
    eval_gradient,
    helmholtz_operators,
    _potential_kernel,
    _require_2d,
)
from .np_spectrum import _matvec
from .specfun import (
    OMEGA_MAX,
    compute_kc,
    tau,
    tau_kc,
    hankel_first_kind,
    grad_gamma_helmholtz,
    sph_j_ratio_from,
    sph_jhp_from,
    sph_terms,
)

__all__ = [
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
]

# Modes whose leading-order denominator falls below this are treated as
# exactly degenerate (delta = 0 on a resonant contrast), not solvable.
_DENOM_GUARD = 1e-14

# Direct solves must reproduce their right-hand side to this relative
# accuracy; LU on a system of condition 1/delta stays orders below it.
_DIRECT_RESIDUAL_TOL = 1e-8

# Boundary-identity vs volume-integral energy disagreement beyond this
# fraction is a numerical failure, not a tolerance miss: both are exact to
# rounding, and the largest gap measured on the sphere is 2e-14.
_ENERGY_CROSS_TOL = 1e-11

_SPHERE_MARGIN = 1.05

def plasmon_lambda(t):
    """
    Spectral parameter lambda(t) = (t + 1) / (2 (t - 1)) of a contrast t.

    The transmission problem at contrast t = eps_c/eps_m is singular in
    the quasi-static limit exactly when lambda(t) is a Neumann-Poincare
    eigenvalue.
    """
    t = complex(t)
    if t == 1.0:
        raise ValueError("contrast t = 1 has no spectral parameter (no jump)")
    lam = (t + 1.0) / (2.0 * (t - 1.0))
    return lam.real if lam.imag == 0.0 else lam


def plasmon_epsilon(lam):
    """
    Contrast eps with lambda(eps) = lam, i.e. eps = (2 lam + 1)/(2 lam - 1).

    lam = 1/2 is the pole of the map (it corresponds to the trivial
    contrast at infinity) and is rejected.
    """
    lam = complex(lam)
    if abs(lam - 0.5) < 1e-15:
        raise ValueError("lambda = 1/2 is the pole of the contrast map")
    eps = (2.0 * lam + 1.0) / (2.0 * lam - 1.0)
    return eps.real if eps.imag == 0.0 else eps


def _vector(name, value, dim):
    """value as a float array of dim numbers (as_number), else ValueError."""
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(entries, (list, tuple)) and len(entries) == dim
            and all(map(is_number, entries))):
        raise ValueError(f"{name} must be a vector of {dim} numbers, got {value!r}")
    return np.array([as_number(name, v) for v in entries])


@dataclass(frozen=True)
class TransmissionProblem:
    """
    Dipole-driven transmission problem for one inclusion.

    geometry is a NodeSet for dim = 2 and a Sphere for dim = 3; a plain
    (L, R) pair is turned into Sphere(L, R) here, and any other pairing
    of dim and geometry raises ValueError.
    In 3D the dipole must sit on the axis of its own moment, on the side
    it points to (z a positive multiple of a), the configuration with
    closed-form axisymmetric traces. That is a restriction, not a choice
    of frame: a rotation can put z on an axis, but it cannot make a
    moment with a part perpendicular to z radial, and that tangential
    part reaches the m = +-1 slots. Such dipoles raise ValueError.

    s, delta, omega0, eps_c and eps_m must be finite numbers (is_number,
    so never a bool or a string) and a and z dim of them; each is stored
    as float, else ValueError names it. The dipole moment is normalised
    to |a| = 1 at construction. Every consumer trusts these checks.

    The problem owns its dipole data, built on first use and kept like
    NodeSet.pairwise: traces, read-only, and on the sphere omega_terms.
    """

    dim: int
    geometry: object
    s: float
    delta: float
    eps_c: float
    omega0: float
    a: np.ndarray
    z: np.ndarray
    eps_m: float = 1.0

    def __post_init__(self):
        if not (is_integer(self.dim) and self.dim in (2, 3)):
            raise ValueError("dim must be 2 or 3")
        if isinstance(self.geometry, NodeSet) != (self.dim == 2):
            raise ValueError(f"a {type(self.geometry).__name__} geometry does not fit dim "
                             f"{self.dim}: a NodeSet is 2D and a sphere 3D")
        for name in ("s", "delta", "omega0", "eps_c", "eps_m"):
            object.__setattr__(self, name, as_number(name, getattr(self, name)))
        a = _vector("a", self.a, self.dim)
        z = _vector("z", self.z, self.dim)
        for name, value in (("s", self.s), ("delta", self.delta), ("omega0", self.omega0),
                            ("eps_c", self.eps_c), ("eps_m", self.eps_m), ("a", a), ("z", z)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.s > 0 and self.delta > 0 and self.omega0 > 0):
            raise ValueError("s, delta, omega0 must be positive")
        if not self.eps_c < 0:
            raise ValueError(f"eps_c must be negative, got {self.eps_c!r}")
        if self.eps_m <= 0:
            raise ValueError("background permittivity must be positive")
        omega = self.s * self.omega0
        if omega > OMEGA_MAX:
            raise ValueError(
                f"omega = s*omega0 = {omega!r} exceeds the low-frequency "
                f"limit {OMEGA_MAX}"
            )
        na = float(np.linalg.norm(a))
        if na == 0.0:
            raise ValueError("dipole moment must be nonzero")
        object.__setattr__(self, "a", a / na)
        object.__setattr__(self, "z", z)
        if self.dim == 2:
            nodes = self.geometry
            if _inside_polygon(z[None, :], nodes.points)[0]:
                raise ValueError("dipole location lies inside the inclusion")
            gap = float(np.min(np.linalg.norm(nodes.points - z, axis=1)))
            if gap < 2.0 * nodes.spacing:
                raise ValueError(
                    f"dipole distance {gap:.3g} to the boundary is below the "
                    f"quadrature buffer {2.0 * nodes.spacing:.3g}"
                )
        else:
            if not isinstance(self.geometry, Sphere):
                object.__setattr__(self, "geometry", Sphere(*self.geometry))
            z0 = float(np.dot(self.a, z))
            if not z0 > 0 or np.linalg.norm(z - z0 * self.a) > 1e-10 * (1.0 + z0):
                raise ValueError("3D dipole must lie on the axis of its moment, on the "
                                 "side it points to: z must be a positive multiple of a")
            if z0 < _SPHERE_MARGIN * self.geometry.R:
                raise ValueError(
                    f"dipole distance {z0:.3g} too close to the sphere "
                    f"(need >= {_SPHERE_MARGIN} R)"
                )

    @property
    def omega(self):
        """Operating frequency s * omega0."""
        return self.s * self.omega0

    @property
    def eps_eff(self):
        """Contrast eps_c / eps_m seen by the solvers."""
        return self.eps_c / self.eps_m

    @property
    def delta_eff(self):
        """Loss delta / eps_m seen by the solvers."""
        return self.delta / self.eps_m

    @property
    def kc(self):
        """Interior wavenumber (fourth quadrant for negative contrast)."""
        return compute_kc(self.omega, self.eps_eff, self.delta_eff)

    @cached_property
    def omega_terms(self):
        """
        sph_terms of the degrees 0..L at omega R for a sphere problem, the
        one series its traces and its operators at omega share; None in 2D.
        """
        if self.dim == 2:
            return None
        return sph_terms(np.arange(self.geometry.L + 1), self.omega * self.geometry.R)

    @cached_property
    def traces(self):
        """dipole_traces of the problem, (F_z, d_nu F_z), read-only."""
        f, g = dipole_traces(self)
        read_only(f, g)
        return f, g


@dataclass(frozen=True)
class SolutionPair:
    """
    Interior/exterior layer densities (phi, psi) of one solve.

    For 2D problems the arrays hold nodal values; for the sphere they
    hold coefficients over surface-orthonormal real spherical
    harmonics.  residual is the relative linear-system residual for
    direct solves and 0 for closed-form spectral solves.
    """

    phi: np.ndarray
    psi: np.ndarray
    solver: str
    residual: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.psi))):
            raise ValueError("solution densities must be finite")


# ------------------------------------------------------------- dipole data


def _hessian_contract(y, k, nu, a):
    """
    nu . Hess(Gamma^k)(y) . a for rows of y, via

        Hess_ij = (ik/4) [ k H0(k rho) yh_i yh_j
                           + H1(k rho) (delta_ij - 2 yh_i yh_j) / rho ].
    """
    rho = np.linalg.norm(y, axis=1)
    yh = y / rho[:, None]
    h0 = hankel_first_kind(0, k * rho)
    h1 = hankel_first_kind(1, k * rho)
    nyh = (nu * yh).sum(axis=1)
    ayh = yh @ a
    nu_a = nu @ a
    return (1j * k / 4.0) * (k * h0 * nyh * ayh + h1 * (nu_a - 2.0 * nyh * ayh) / rho)


def dipole_traces(problem):
    """
    Boundary data (F_z, d_nu F_z) of the incident dipole field, which
    problem.traces keeps.

    2D: nodal traces on the quadrature nodes of the problem geometry.
    3D: coefficient vectors over surface-orthonormal real spherical
    harmonics; only the m = 0 slots of the dipole axis are populated,
    from the outgoing addition theorem for the axial dipole at distance
    z0 = a . z,

        Gamma^om(x - z) = -i om sum_n j_n(om r) h_n(om z0) c_n Y_n0(xhat),

    differentiated in z0 (the same as -a . grad_x for an axial moment),
    with c_n = sqrt((2n+1)/4pi) and j_n(om z0) h_n'(om z0) as a stable
    Bessel product, so they remain accurate at frequencies where raw
    spherical Hankel values overflow. The ratios' numerators are the
    problem's omega_terms.
    """
    om = problem.omega
    if problem.dim == 2:
        y = problem.geometry.points - problem.z[None, :]
        grads = grad_gamma_helmholtz(y, om)
        f = -(grads @ problem.a)
        dnf = -_hessian_contract(y, om, problem.geometry.normals, problem.a)
        return f, dnf
    sphere = problem.geometry
    n = np.arange(sphere.L + 1)
    cn = np.sqrt((2 * n + 1) / (4.0 * math.pi))
    at_z0 = sph_terms(n, om * float(np.dot(problem.a, problem.z)))
    jhp = sph_jhp_from(at_z0)
    ratio, ratio_d = sph_j_ratio_from(problem.omega_terms, at_z0)
    f = np.zeros(n.size ** 2, dtype=complex)
    g = np.zeros(n.size ** 2, dtype=complex)
    f[n * n + n] = -1j * om * om * cn * sphere.R * ratio * jhp
    g[n * n + n] = -1j * om ** 3 * cn * sphere.R * ratio_d * jhp
    return f, g


# ----------------------------------------------------------------- solvers


def assemble_system(problem, operators=None):
    """
    Full transmission system (A, b): find (phi, psi) with

        [ S^{k_c}                      -S^omega          ] [phi]   [ F_z      ]
        [ (eps+i d)(-1/2 + K^{k_c}*)   -(1/2 + K^omega*) ] [psi] = [ d_nu F_z ].

    The first row matches Dirichlet data, the second the flux
    eps_c d_nu u|- = eps_m d_nu u|+ (permittivities normalised by the
    background).  The blocks are Nystrom matrices, so the problem must
    be 2D (else TypeError): the sphere's blocks are diagonal, and
    solve_direct solves them slot by slot.

    operators, when given, is (at_kc, at_omega), the helmholtz_operators
    of the problem's geometry at k_c and omega; anything else raises
    TypeError, and a pair of another geometry or k ValueError. The data
    are problem.traces.
    """
    _require_2d(problem.geometry)
    blocks, (f, g) = _system_blocks(problem, operators)
    m = blocks[0].shape[0]
    a_mat = np.empty((2 * m, 2 * m), dtype=np.result_type(*blocks))
    a_mat[:m, :m], a_mat[:m, m:], a_mat[m:, :m], a_mat[m:, m:] = blocks
    return a_mat, np.concatenate([f, g])


def _system_blocks(problem, operators):
    """Blocks (A11, A12, A21, A22) and data (f, g); sphere blocks are 1-D."""
    om = problem.omega
    kc = problem.kc
    epsd = problem.eps_eff + 1j * problem.delta_eff
    operators = operators or (helmholtz_operators(problem.geometry, kc),
                              helmholtz_operators(problem.geometry, om, problem.omega_terms))
    for pair, k in zip(operators, (kc, om)):
        if not isinstance(pair, HelmholtzOperators):
            raise TypeError("operators must be HelmholtzOperators pairs (at k_c, at omega)")
        if pair.geometry != problem.geometry:
            raise ValueError("operators assembled on another geometry than the problem's")
        if abs(pair.k - k) > 1e-12 * max(1.0, abs(k)):
            raise ValueError(f"operators assembled at wavenumber {pair.k}, expected {k}")
    at_kc, at_omega = operators
    s_in, k_in, s_out, k_out = at_kc.s, at_kc.kstar, at_omega.s, at_omega.kstar
    eye = np.eye(s_in.shape[0]) if s_in.ndim == 2 else 1.0
    blocks = (s_in, -s_out, epsd * (-0.5 * eye + k_in), -(0.5 * eye + k_out))
    return blocks, problem.traces


def _solve_slots(a11, a12, a21, a22, f, g):
    """
    Solve [[a11, a12], [a21, a22]] [x; y] = [f; g] elementwise by LU with
    partial pivoting, exactly as getrf pivots the block-diagonal system:
    the pivot has the larger |Re| + |Im|, ties going to the first row. A
    singular slot gives non-finite values, which solve_direct rejects.
    """
    swap = np.abs(a21.real) + np.abs(a21.imag) > np.abs(a11.real) + np.abs(a11.imag)
    top, bottom = (a11, a12, f), (a21, a22, g)
    (p11, p12, pf), (q11, q12, qg) = np.where(swap, [bottom, top], [top, bottom])
    lower = q11 / p11
    y = (qg - lower * pf) / (q12 - lower * p12)
    return (pf - p12 * y) / p11, y


def solve_direct(problem, operators=None):
    """
    Direct solve of the full Helmholtz transmission system: dense LU in
    2D, one pivoted 2x2 solve per harmonic slot on the sphere (whose
    blocks are diagonal), with the residual from the block diagonals.

    Raises RuntimeError when the relative residual exceeds 1e-8, which
    only happens if the system is degenerate beyond its natural 1/delta
    conditioning. operators is as for assemble_system, in both
    dimensions; a pair's geometry must be the problem's NodeSet object or
    an equal Sphere, and its k within 1e-12 relative.
    """
    if problem.dim == 3:
        (a11, a12, a21, a22), (f, g) = _system_blocks(problem, operators)
        phi, psi = _solve_slots(a11, a12, a21, a22, f, g)
        ax = np.concatenate([a11 * phi + a12 * psi, a21 * phi + a22 * psi])
        rhs = np.concatenate([f, g])
    else:
        a_mat, rhs = assemble_system(problem, operators)
        x = np.linalg.solve(a_mat, rhs)
        ax = a_mat @ x
        phi, psi = np.split(x, 2)
    resid = float(np.linalg.norm(ax - rhs) / np.linalg.norm(rhs))
    if not resid <= _DIRECT_RESIDUAL_TOL:
        raise RuntimeError(f"direct solve residual {resid:.3g} above tolerance")
    return SolutionPair(phi, psi, "direct", resid)


def _denominators(lambdas, eps_c, delta):
    """Leading-order mode denominators D_n, O(delta) on resonance."""
    epsd = eps_c + 1j * delta
    return (epsd - 1.0) * lambdas - 0.5 * (epsd + 1.0)


def _guard_denominators(dvals):
    small = np.abs(dvals) < _DENOM_GUARD
    if np.any(small):
        raise RuntimeError(
            "leading-order denominator vanishes (lossless resonant contrast); "
            f"modes {np.nonzero(small)[0].tolist()}"
        )


def solve_spectral(fcheck, ghat, eps_c, delta, omega, spectrum):
    """
    Closed-form leading-order solution on a 2D boundary or the sphere.

    fcheck, ghat are the coefficient vectors of the data (f expanded in
    the single-layer traces S~[phi_n], g in the eigendensities). Every
    mode obeys

        phi_hat(n) = (ghat(n) - (1/2 + lambda_n) fcheck(n)) / D_n,
        psi_hat(n) = phi_hat(n) - fcheck(n);

    at n = 0 the denominator is exactly -1, which closes the sphere's
    mean sector. In 2D the mean sector instead feels the frequency
    through the logarithmic constants tau(omega) and tau(k_c) of the
    fundamental solution, and slot 0 is overwritten by

        psi_hat(0) = -ghat(0),
        phi_hat(0) = (kappa - ghat(0) (c0_h + tau(omega) m0))
                     / (c0_h + tau(k_c) m0),

    with kappa = ctilde0 * fcheck(0) the raw H*-pairing of f against
    the equilibrium density, and (c0_h, m0, ctilde0) the normalisation
    bookkeeping stored on the spectrum. On capacity-degenerate
    boundaries (c0_h = 0) this reduces to
    (fcheck(0) - tau(omega) ghat(0)) / tau(k_c).
    """
    if omega <= 0 or omega > OMEGA_MAX:
        raise ValueError(f"omega must lie in (0, {OMEGA_MAX}]")
    fcheck = np.asarray(fcheck, dtype=complex)
    ghat = np.asarray(ghat, dtype=complex)
    lam = spectrum.lambdas
    dvals = _denominators(lam, eps_c, delta)
    _guard_denominators(dvals)
    phi_hat = (ghat - (0.5 + lam) * fcheck) / dvals
    psi_hat = phi_hat - fcheck
    if spectrum.dim == 2:
        denom0 = spectrum.c0_h + tau_kc(compute_kc(omega, eps_c, delta)) * spectrum.m0
        if abs(denom0) < _DENOM_GUARD:
            raise RuntimeError("mean-sector denominator vanishes")
        kappa = spectrum.ctilde0 * fcheck[0]
        phi_hat[0] = (kappa - ghat[0] * (spectrum.c0_h + tau(omega) * spectrum.m0)) / denom0
        psi_hat[0] = -ghat[0]
    return SolutionPair(_matvec(spectrum.densities, phi_hat),
                        _matvec(spectrum.densities, psi_hat), "spectral", 0.0)


# ------------------------------------------------------------------ energy


def _fft_tangential_deriv(values, nodes):
    """Arclength derivative of periodic nodal values (spectral)."""
    n = values.size
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freqs[n // 2] = 0.0
    dv_dt = np.fft.ifft(1j * freqs * np.fft.fft(values))
    return dv_dt / nodes.jacobians


def _collar_integral(nodes, b, f_bdry, f_edge):
    """
    Trapezoid of f over the collar {x - rho nu(x), 0 <= rho <= b} with
    area element (1 - rho kappa) drho dsigma.
    """
    inner = f_edge * (1.0 - b * nodes.curvatures)
    return np.sum(nodes.weights * 0.5 * b * (f_bdry + inner))


def interior_gradient_energy(phi, operators):
    """
    Ground-truth int |grad u|^2 over the inclusion by interior
    quadrature: a fine cell-centred grid away from the boundary plus a
    collar strip whose boundary values come from the jump relations
    (normal part) and spectral differentiation of the trace
    (tangential part). operators is the HelmholtzOperators of a 2D
    boundary at k_c; its tables are not used. Anything else raises
    TypeError.
    """
    if not isinstance(operators, HelmholtzOperators):
        raise TypeError("energy operators must be HelmholtzOperators at k_c")
    kc = operators.k
    nodes = _require_2d(operators.geometry)
    u_trace = operators.s @ phi
    dnu = -0.5 * phi + operators.kstar @ phi
    dtu = _fft_tangential_deriv(u_trace, nodes)
    quad = nodes.interior
    b = quad.collar
    grid = interior_points(nodes.curve, min(nodes.spacing, b / 2.5), buffer=b)
    grads = eval_gradient(nodes, phi, kc, grid.points)
    e_bulk = float(np.sum(grid.weights * np.sum(np.abs(grads) ** 2, axis=1)))
    g_edge = eval_gradient(nodes, phi, kc, quad.edge.points)
    f_bdry = np.abs(dnu) ** 2 + np.abs(dtu) ** 2
    f_edge = np.sum(np.abs(g_edge) ** 2, axis=1)
    return e_bulk + float(_collar_integral(nodes, b, f_bdry, f_edge))


def gradient_energy(phi, operators):
    """
    ||grad u||^2_{L^2} of the interior field u = S^{k_c}[phi].

    operators is the HelmholtzOperators of (S^{k_c}, K^{k_c}*) in both
    dimensions: the Nystrom pair of a 2D boundary or the diagonals of
    sphere_operators, whose interior data the energies of one grid point
    share; anything else raises TypeError. The value comes from the
    boundary Green identity; the |u|^2 volume term it needs is a small
    correction of relative size |k_c|^2 and is integrated on a coarse
    interior grid (2D) or per radial mode from the tables' i_mass
    (sphere: a double series of the k_c R terms at every |k_c| R,
    accurate to rounding on a sweep's k_c; a k_c too near the real axis
    for its size raises ValueError). The sphere route also cross-checks
    the identity against the volume integral of |grad u|^2 per mode, the
    tables' i_grad, a term-by-term series that does not come from the
    identity, and raises RuntimeError on a relative disagreement beyond
    1e-11.
    """
    if not isinstance(operators, HelmholtzOperators):
        raise TypeError("energy operators must be HelmholtzOperators at k_c")
    kc, geometry = operators.k, operators.geometry
    u_trace = _matvec(operators.s, phi)
    if isinstance(geometry, NodeSet):
        dnu = -0.5 * phi + operators.kstar @ phi
        e_b = float(np.real(np.sum(geometry.weights * u_trace * np.conj(dnu))))
        # int |u|^2: coarse grid plus boundary collar
        quad = geometry.interior
        coarse, edge = operators.tables
        wphi = geometry.weights * phi
        v_bulk = float(np.sum(quad.coarse.weights * np.abs(coarse @ wphi) ** 2))
        v_collar = float(_collar_integral(geometry, quad.collar, np.abs(u_trace) ** 2,
                                          np.abs(edge @ wphi) ** 2))
        return e_b + np.real(kc * kc) * (v_bulk + v_collar)
    dnu = (-0.5 + operators.kstar) * phi
    e_b = float(np.real(np.sum(u_trace * np.conj(dnu))))
    i_mass, i_grad = operators.tables
    t2 = np.abs(u_trace) ** 2 / geometry.R ** 2
    vol = float(np.sum(t2 * i_mass))
    e_identity = e_b + np.real(kc * kc) * vol
    e_exact = float(np.sum(t2 * i_grad))
    _check_energy_agreement(e_identity, e_exact)
    return e_identity


def _check_energy_agreement(e_identity, e_exact):
    scale = max(abs(e_exact), abs(e_identity), 1e-300)
    rel = abs(e_identity - e_exact) / scale
    if not rel <= _ENERGY_CROSS_TOL:
        raise RuntimeError(
            f"energy cross-check failed: boundary identity {e_identity:.6g} vs "
            f"volume integral {e_exact:.6g} (relative gap {rel:.3g})"
        )


# ---------------------------------------------------------------- coupling


def coupling_an(problem, slots, spectrum):
    """
    Resonant couplings a_n(omega) of the problem's unit dipole (a, z) to
    the modes n of a sequence of slots of spectrum, the NP spectrum of the
    problem's geometry,

        a_n = <F_z, phi_n> + omega^2 int_D F_z S[phi_n] dV,

    where the surface pairing equals a . grad S^omega[phi_n](z)
    identically.  Returns the arrays (a_n, a_n0), one entry per slot,
    with a_n0 = a . grad S[phi_n](z) the quasi-static value; a_n - a_n0
    vanishes quadratically in omega (up to the log factor of the 2D
    fundamental solution). The problem has checked the dipole and omega;
    a slot outside 1..spectrum.n - 1 or a spectrum of another geometry
    (a NodeSet other than the problem's, or an unequal Sphere) raises
    ValueError. F_z comes from problem.traces. In 2D the volume term is
    integrated on the interior grid. On the sphere Green's second
    identity (Delta S[phi_n] = 0, Delta F_z = -omega^2 F_z,
    d_nu^- S[phi_n] = (lambda_n - 1/2) phi_n) turns it into a boundary
    pairing: a_n = ghat(n) - (1/2 + lambda_n) fcheck(n), the numerator of
    solve_spectral's mode n, from the dipole traces alone.
    """
    if spectrum.geometry != problem.geometry:
        raise ValueError("spectrum of another geometry than the problem's")
    slots = [int(n) for n in slots]
    if not all(1 <= n < spectrum.n for n in slots):
        raise ValueError("mode index must satisfy 1 <= n < spectrum.n")
    if spectrum.dim == 2:
        return _coupling_an_2d(problem, slots, spectrum)
    return _coupling_an_3d(problem, slots, spectrum)


def _coupling_an_2d(problem, slots, spectrum):
    nodes, z, a, omega = problem.geometry, problem.z, problem.a, problem.omega
    quad = nodes.interior
    f_bdry = problem.traces[0]
    f_in, f_edge = (-(grad_gamma_helmholtz(p - z[None, :], omega) @ a)
                    for p in (quad.fine.points, quad.edge.points))
    kern_in = _potential_kernel(quad.fine, 0.0)
    kern_edge = _potential_kernel(quad.edge, 0.0)
    a_n = np.empty(len(slots), dtype=complex)
    for i, n in enumerate(slots):
        phi_n = spectrum.densities[:, n]
        wphi = nodes.weights * phi_n
        surface = complex(np.sum(nodes.weights * f_bdry * phi_n))
        vol = complex(np.sum(quad.fine.weights * f_in * (kern_in @ wphi)))
        # collar: F_z stays smooth up to the boundary and S[phi_n] has a
        # continuous trace (the stored S~ column for n >= 1), so a
        # trapezoid strip closes the volume integral
        vol += complex(_collar_integral(nodes, quad.collar,
                                        f_bdry * spectrum.stilde_traces[:, n],
                                        f_edge * (kern_edge @ wphi)))
        a_n[i] = surface + omega * omega * vol
    a_n0 = a @ eval_gradient(nodes, spectrum.densities[:, slots], 0.0, z[None, :])[0]
    return a_n, a_n0.astype(complex)


def _coupling_an_3d(problem, slots, spectrum):
    radius = problem.geometry.R
    z0 = float(np.dot(problem.a, problem.z))
    f, g = problem.traces
    # ghat - (1/2 + lambda) fcheck on the diagonal spectrum, slots only;
    # off-axis slots come out 0, as their traces are
    beta, gram, lam = (v[slots] for v in (spectrum.densities, spectrum.gram, spectrum.lambdas))
    a_n = beta * (gram * g[slots] + (0.5 + lam) * f[slots])
    a_n0 = np.zeros(len(slots), dtype=complex)
    for i, n in enumerate(slots):
        deg = math.isqrt(n)  # slots n^2 .. n^2 + 2n hold degree n
        # off-axis harmonics are orthogonal to an axial dipole
        if n == deg * deg + deg:
            cn = np.sqrt((2 * deg + 1) / (4.0 * math.pi))
            a_n0[i] = ((deg + 1) * radius ** (deg + 1) * cn * beta[i]
                       / ((2 * deg + 1) * z0 ** (deg + 2)))
    return a_n, a_n0
