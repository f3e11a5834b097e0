"""
Discrete layer potentials on smooth boundaries.

2D curves use a Nystrom discretization with product quadrature for the
periodic logarithmic singularity: every kernel is split as

    K(t, s) = M1(t, s) ln(4 sin^2((t - s)/2)) + M2(t, s)

with M1, M2 smooth, and the log factor is integrated exactly against
trigonometric polynomials by the circulant weight matrix of
`log_weight_matrix`. On analytic curves the resulting matrices converge
spectrally.

Everything that does not depend on the wavenumber (distances, the log
factor, nu . (x - y), the weight matrix) is built once per NodeSet
(`NodeSet.pairwise`). The Helmholtz matrices evaluate their Bessel and
Hankel values once per distinct node distance (`r_distinct`) and
gather them into the matrix through `r_index`: equal distances give
equal values, r is exactly symmetric and every diagonal entry is
overwritten, so the result is bit-identical to the full evaluation.
Each matrix reads two such tables (J0 and H0 for S^k, J1 and H1 for
K^k*). The real factors are applied in place, but each complex-scalar
product stays written as scalar * fresh gather: numpy turns that
expression into an in-place product only for arrays of at least
256 KiB, and the two operand orders differ in the last bit, so any
other spelling would move the bits at some node counts.
The boundary matrices stay on Hankel values rather than a low-frequency
series on purpose: a 1-ulp change of the Hankel values in them moves
the resonant ellipse sweep's energy_norm by about 1e-11 relative and its
phi0_hat_abs by about 6e-10, above the 1e-12 that sweep cells are
pinned to.

Off-boundary potentials (`eval_potential`, and the sweep's energy
kernels on the interior quadrature of `NodeSet.interior`) sum the
Helmholtz kernel from its low-frequency series in ln r and r^2
(`gamma_helmholtz_series`) whenever |k| r_max over the target set is at
most 0.5, and from Hankel values above that (`_potential_kernel`).
The two agree to a few 1e-16 relative at the switch. In a sweep these
potentials only enter the |u|^2 volume term of the energy, at most
about 1e-5 of it, so the series route leaves the pinned cells in place.
Their gradients (`eval_gradient`) sum the kernel gradient directly.

The sphere needs no surface quadrature: all four operators are diagonal
in the spherical-harmonic basis, and `sphere_operators` returns the pair
at one wavenumber stored as 1-D diagonals (with cancellation-safe Bessel
products at small wavenumber), never as dense matrices. The radial
integrals of its interior energy (`HelmholtzOperators.tables`) are
double series of the k R terms of j_n at every |k| R, refused where k is
so near the real axis that the terms cancel (specfun.sph_radial_from).
Every operator is a read-only ndarray, safe to share across threads;
the geometry and k of a pair (S^k, K^k*) live once, on its
`HelmholtzOperators`.

Operator conventions: the single layer is S[phi](x) = int Gamma(x-y)
phi(y) dsigma(y); the adjoint NP operator K* has kernel d/dnu_x
Gamma(x-y), principal value on the boundary, smooth on C^2 curves with
diagonal limit kappa(t)/(4 pi) in the parameter frame. One-sided normal
derivatives of S[phi] are (+1/2 I + K*)phi outside and (-1/2 I + K*)phi
inside.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .geometry import NodeSet, Sphere, TargetSet
from .specfun import (
    EULER_GAMMA,
    gamma_helmholtz_series,
    grad_gamma_helmholtz,
    grad_gamma_laplace,
    sph_jh_from,
    sph_radial_from,
    sph_terms,
)

__all__ = [
    "assemble_S",
    "assemble_Kstar",
    "assemble_S_omega",
    "assemble_Kstar_omega",
    "eval_potential",
    "eval_gradient",
    "HelmholtzOperators",
    "helmholtz_operators",
    "sphere_operators",
    "sphere_degree_index",
]

# largest |k| times the bounding-box diagonal of the nodes that the
# Helmholtz assemblers accept, at every node count
_MAX_K_DIAM = 5.0

# largest |k| r_max over a target set for which off-boundary potentials
# are summed from the low-frequency series of the kernel
_SERIES_KR_MAX = 0.5

def _frozen(m):
    m.flags.writeable = False
    return m


def _require_2d(nodes):
    if not isinstance(nodes, NodeSet):
        raise TypeError("expected a 2D NodeSet")
    return nodes


def _check_wavenumber(nodes, k):
    k = complex(k)
    if k == 0:
        raise ValueError("k must be nonzero; use the static assemblers")
    lo = nodes.points.min(axis=0)
    hi = nodes.points.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    if abs(k) * diam > _MAX_K_DIAM:
        raise ValueError(
            f"|k| diam = {abs(k) * diam:.3g} exceeds {_MAX_K_DIAM} (diam is the "
            "bounding-box diagonal of the boundary; the limit holds at every node count)"
        )
    return k


def _weighted_sum(pw, m1, m2):
    """log_weights * m1 + (2 pi / n) m2, with m1 and m2 overwritten."""
    m1 *= pw.log_weights
    m2 *= 2.0 * np.pi / m1.shape[0]
    m1 += m2
    return m1


def assemble_S(nodes):
    """Static single-layer matrix, log-singular product quadrature."""
    nodes = _require_2d(nodes)
    n = nodes.n
    pw = nodes.pairwise
    jac = nodes.jacobians
    m1 = np.broadcast_to(jac / (4.0 * np.pi), (n, n)).copy()
    m2 = (np.log(pw.r * pw.r) - pw.logsin) * jac / (4.0 * np.pi)
    np.fill_diagonal(m2, np.log(jac) * jac / (2.0 * np.pi))
    return _frozen(_weighted_sum(pw, m1, m2))


def assemble_Kstar(nodes):
    """
    Static adjoint-NP matrix. The kernel is smooth on C^2 curves, so the
    plain trapezoid rule applies; the diagonal is the continuous-extension
    value kappa |x'| / (4 pi). Row sums of the transpose vanish against
    the weights: int (-1/2 I + K*)[phi] dsigma = 0.
    """
    nodes = _require_2d(nodes)
    n = nodes.n
    pw = nodes.pairwise
    kern = pw.nu_dot / (2.0 * np.pi * pw.r * pw.r) * nodes.jacobians
    np.fill_diagonal(kern, nodes.curvatures * nodes.jacobians / (4.0 * np.pi))
    return _frozen((2.0 * np.pi / n) * kern)


def _distance_table(nodes, k, name, order):
    """
    special.<name>(order, k r) over the distinct node distances
    r_distinct. k is passed as complex: for a real k scipy would take
    its real-argument routine, whose values differ in the last bits.
    """
    return getattr(special, name)(order, complex(k) * nodes.pairwise.r_distinct)


def assemble_S_omega(nodes, k):
    """
    Helmholtz single-layer matrix at (possibly complex) wavenumber k.

    Splitting: the log coefficient is (1/4pi) J0(k r) |x'(s)|; the smooth
    part is recovered by subtraction with the analytic diagonal limit
    [-i/4 + (1/2pi)(gamma + ln(k |x'(t)|/2))] |x'(t)|.
    """
    nodes = _require_2d(nodes)
    k = _check_wavenumber(nodes, k)
    pw = nodes.pairwise
    jac = nodes.jacobians
    m1 = _distance_table(nodes, k, "jv", 0)[pw.r_index]
    m1 *= jac
    m1 /= 4.0 * np.pi
    np.fill_diagonal(m1, jac / (4.0 * np.pi))
    m2 = -0.25j * _distance_table(nodes, k, "hankel1", 0)[pw.r_index]
    m2 *= jac
    m2 -= m1 * pw.logsin
    diag = (-0.25j + (EULER_GAMMA + np.log(k * jac / 2.0)) / (2.0 * np.pi)) * jac
    np.fill_diagonal(m2, diag)
    return _frozen(_weighted_sum(pw, m1, m2))


def assemble_Kstar_omega(nodes, k):
    """
    Helmholtz adjoint-NP matrix at wavenumber k.

    Kernel (ik/4) H1(k r) (nu(t).(x(t)-x(s)))/r |x'(s)|; log coefficient
    -(k/4pi) J1(k r) (nu.dx/r) |x'(s)|, vanishing on the diagonal, where
    the smooth part has the static limit kappa |x'| / (4 pi).
    """
    nodes = _require_2d(nodes)
    k = _check_wavenumber(nodes, k)
    pw = nodes.pairwise
    jac = nodes.jacobians
    m1 = -(k / (4.0 * np.pi)) * _distance_table(nodes, k, "jv", 1)[pw.r_index]
    m1 *= pw.nu_dot_r
    m1 *= jac
    np.fill_diagonal(m1, 0.0)
    m2 = 0.25j * k * _distance_table(nodes, k, "hankel1", 1)[pw.r_index]
    m2 *= pw.nu_dot_r
    m2 *= jac
    m2 -= m1 * pw.logsin
    np.fill_diagonal(m2, nodes.curvatures * jac / (4.0 * np.pi))
    return _frozen(_weighted_sum(pw, m1, m2))


def eval_potential(nodes, density, k, points):
    """
    Single-layer potential S^k[phi] at points off the boundary, by direct
    quadrature with the kernel of _potential_kernel on the TargetSet of
    the points.

    Accuracy degrades near the boundary; points closer than twice the
    node spacing are rejected.
    """
    nodes = _require_2d(nodes)
    targets = TargetSet.of(nodes, points)
    density = np.asarray(density)
    if density.shape != (nodes.n,):
        raise ValueError(f"density must have shape ({nodes.n},)")
    return _potential_kernel(targets, k) @ (nodes.weights * density)


def eval_gradient(nodes, density, k, points):
    """
    Gradient of the single-layer potential S^k[phi] at points off the
    boundary, shape (m, 2), by direct quadrature of the kernel gradient;
    a block of densities, shape (n, s), gives shape (m, 2, s). Points are
    rejected as by eval_potential.
    """
    nodes = _require_2d(nodes)
    targets = TargetSet.of(nodes, points)
    density = np.asarray(density)
    if density.ndim > 2 or density.shape[:1] != (nodes.n,):
        raise ValueError(f"density must have shape ({nodes.n},) or ({nodes.n}, s)")
    dx = targets.points[:, None, :] - nodes.points[None, :, :]
    gk = grad_gamma_laplace(dx) if k == 0 else grad_gamma_helmholtz(dx, k)
    return np.einsum("mjd,j...->md...", gk, (density.T * nodes.weights).T)


def _potential_kernel(targets, k):
    """
    Kernel matrix Gamma^k(p_i - x_j) from a TargetSet to its nodes:
    ln r / 2pi for k = 0; for k != 0 the low-frequency series while
    |k| r_max <= _SERIES_KR_MAX (0.5), and Hankel values above that.
    """
    if k == 0:
        return targets.log_r / (2.0 * np.pi)
    if abs(k) * targets.r_max <= _SERIES_KR_MAX:
        return gamma_helmholtz_series(targets.log_r, targets.r2, k)
    return -0.25j * special.hankel1(0, k * np.sqrt(targets.r2))


@dataclass(eq=False)
class HelmholtzOperators:
    """
    The pair (S^k, K^k*) of one geometry at one wavenumber k (stored as
    complex(k)), as helmholtz_operators builds it, which solve_direct
    checks against its problem, and its interior data for the energies,
    built on the first call of tables(). On a NodeSet: _potential_kernel
    on the coarse grid and the collar edge of nodes.interior. On a
    Sphere: per harmonic slot of degree n the radial integrals of
    g_n(r) = j_n(k r)/j_n(k R),

        i_mass = int_0^R |g_n|^2 r^2 dr,
        i_grad = int_0^R (|g_n'|^2 + n(n+1) |g_n/r|^2) r^2 dr,

    as double series of the terms of the j_n series at k R
    (_sphere_radial_table) at every |k| R.

    A sweep keeps the pair at k_c per grid point for its direct solve and
    both energies, so each is built once per point and freed with it.
    """

    geometry: object
    k: complex
    s: np.ndarray
    kstar: np.ndarray
    _tables: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.k = complex(self.k)

    def tables(self):
        """(coarse, edge) kernel matrices, or the sphere's (i_mass, i_grad)."""
        if self._tables is None:
            if isinstance(self.geometry, NodeSet):
                quad = self.geometry.interior
                self._tables = (_potential_kernel(quad.coarse, self.k),
                                _potential_kernel(quad.edge, self.k))
            else:
                self._tables = _sphere_radial_table(self.geometry, self.k)
        return self._tables


def helmholtz_operators(geometry, k, terms=None):
    """
    HelmholtzOperators of (S^k, K^k*) on a NodeSet (Nystrom matrices) or
    a Sphere (diagonals; a plain (L, R) is checked as a Sphere); terms is
    sphere_operators' and has no use in 2D.
    """
    if isinstance(geometry, NodeSet):
        return HelmholtzOperators(geometry, k, assemble_S_omega(geometry, k),
                                  assemble_Kstar_omega(geometry, k))
    return HelmholtzOperators(Sphere(*geometry), k, *sphere_operators(geometry, k, terms))


# ---------------------------------------------------------------- sphere


def sphere_degree_index(L):
    """Degree n of each flattened (n, m) spherical-harmonic slot."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def _sphere_radial_table(sphere, k):
    """
    The sphere's (i_mass, i_grad) of HelmholtzOperators.tables, one per
    slot: R^3 / (2n+3) and R times the (mass, grad) of
    sph_radial_from(n, k R), which refuses (ValueError) a k too close to
    the real axis for its size. i_grad is the term-by-term volume
    integral, not the Green identity, so it checks gradient_energy
    independently.
    """
    L, radius = sphere
    n = np.arange(L + 1)
    mass, grad = sph_radial_from(n, k * radius)
    deg = sphere_degree_index(L)
    return (radius ** 3 / (2 * n + 3) * mass)[deg], (radius * grad)[deg]


def sphere_operators(sphere, k=0.0, terms=None):
    """
    Diagonal operators on a Sphere (L, R) over real spherical harmonics
    flattened as (n, m), m = -n..n, n = 0..L, each stored as its 1-D
    diagonal:

        S    -> -R/(2n+1)
        K*   ->  1/(2(2n+1))
        S^k  -> -i k R^2 j_n(kR) h_n(kR)
        K^k* -> -(i k^2 R^2 / 2) (j_n h_n)'(kR)

    Returns the pair at k: (S, K*) for k = 0 and (S^k, K^k*) otherwise. The
    Bessel products are series-evaluated for |k|R < 0.5 where the raw
    h_n overflow; terms, when given, is sph_terms(np.arange(L + 1), k R).
    A plain (L, R) is checked as a Sphere.
    """
    L, R = sphere = Sphere(*sphere)
    k = complex(k)
    if abs(k) * R > 10.0:
        raise ValueError("|k| R must be <= 10")
    deg = sphere_degree_index(L)
    if k == 0:
        s_diag = -R / (2.0 * deg + 1.0)
        kstar_diag = 1.0 / (2.0 * (2.0 * deg + 1.0))
    else:
        jh, jhp = sph_jh_from(terms or sph_terms(np.arange(L + 1), k * R))
        s_diag = -1j * k * R * R * jh[deg]
        kstar_diag = -0.5j * k * k * R * R * jhp[deg]
    return _frozen(s_diag), _frozen(kstar_diag)
