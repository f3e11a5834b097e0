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

Off-boundary potentials (`eval_potential`, and `eval_potential_on` for
a prebuilt TargetSet such as the interior quadrature of
`NodeSet.interior`) sum the Helmholtz kernel from its low-frequency
series in ln r and r^2 (`gamma_helmholtz_series`) whenever |k| r_max
over the target set is at most 0.5, and from Hankel values above that.
The two agree to a few 1e-16 relative at the switch. In a sweep these
potentials only enter the |u|^2 volume term of the energy, at most
about 1e-5 of it, so the series route leaves the pinned cells in place.
Their gradients (`eval_gradient`) sum the kernel gradient directly.

The sphere needs no surface quadrature: all four operators are diagonal
in the spherical-harmonic basis, and `sphere_operators` returns them
stored as their 1-D diagonals (with cancellation-safe Bessel products at
small wavenumber), never as dense matrices. The radial integrals of its
interior energy are double series of the k R terms of j_n below
|k| R = 0.5, accurate to rounding, and a 48-point Gauss-Legendre rule
from Bessel values above it (`InteriorKernels`).

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

from .geometry import NodeSet, TargetSet, log_weight_matrix
from .specfun import (
    EULER_GAMMA,
    gamma_helmholtz_series,
    grad_gamma_helmholtz,
    grad_gamma_laplace,
    sph_jh_from,
    sph_j_ratio_from,
    sph_terms,
)

__all__ = [
    "BoundaryOperator",
    "log_weight_matrix",
    "assemble_S",
    "assemble_Kstar",
    "assemble_S_omega",
    "assemble_Kstar_omega",
    "eval_potential",
    "eval_potential_on",
    "eval_gradient",
    "InteriorKernels",
    "sphere_operators",
    "sphere_degree_index",
]

# largest wavenumber-diameter product the node counts used here resolve
_MAX_K_DIAM = 5.0

# largest |k| r_max over a target set for which off-boundary potentials
# are summed from the low-frequency series of the kernel
_SERIES_KR_MAX = 0.5

# 48-point Gauss-Legendre rule (nodes, weights) on [-1, 1], read-only, for
# the radial integrals of the sphere's interior energy and coupling. These
# are numpy's leggauss(48) values, which are exactly symmetric about 0;
# stored for x > 0, they spare every import leggauss's eigenvalue call.
_GAUSS_X, _GAUSS_W = np.array([
    [0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
     0.28736248735545555, 0.3487558862921607, 0.4086864819907167, 0.4669029047509584,
     0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
     0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
     0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
     0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261],
    [0.06473769681268365, 0.06446616443594982, 0.06392423858464787, 0.06311419228625373,
     0.06203942315989242, 0.0607044391658936, 0.059114839698395344, 0.057277292100402916,
     0.05519950369998403, 0.05289018948519344, 0.0503590355538542, 0.04761665849249024,
     0.04467456085669423, 0.04154508294346455, 0.0382413510658305, 0.034777222564770394,
     0.031167227832798097, 0.027426509708357034, 0.023570760839324047, 0.019616160457356056,
     0.015579315722943226, 0.011477234579234614, 0.007327553901276135, 0.0031533460523098414],
])
GAUSS_48 = (np.concatenate([-_GAUSS_X[::-1], _GAUSS_X]),
            np.concatenate([_GAUSS_W[::-1], _GAUSS_W]))
GAUSS_48[0].flags.writeable = GAUSS_48[1].flags.writeable = False


@dataclass(frozen=True)
class BoundaryOperator:
    """
    Discrete boundary operator.

    A 2-D matrix is dense and acts on vectors of nodal density values
    (2D curves). A 1-D matrix is a diagonal: the operator acts on
    flattened spherical-harmonic coefficients (sphere) as
    matrix * coefficients. kind names the operator, wavenumber is 0 for
    static kernels, and nodes is the geometry: the NodeSet of a 2D
    matrix, the (L, R) of a sphere_operators diagonal. Matrices are
    frozen after assembly and safe to share across threads.
    """

    matrix: np.ndarray
    kind: str
    wavenumber: complex = 0.0
    nodes: object = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if not (m.ndim == 1 or (m.ndim == 2 and m.shape[0] == m.shape[1])):
            raise ValueError("operator matrix must be square or a 1-D diagonal")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


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
            f"|k| diam = {abs(k) * diam:.3g} exceeds {_MAX_K_DIAM}; "
            "the node count cannot resolve this wavenumber"
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
    return BoundaryOperator(_weighted_sum(pw, m1, m2), kind="S", wavenumber=0.0,
                            nodes=nodes)


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
    mat = (2.0 * np.pi / n) * kern
    return BoundaryOperator(mat, kind="Kstar", wavenumber=0.0, nodes=nodes)


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
    return BoundaryOperator(_weighted_sum(pw, m1, m2), kind="S_omega", wavenumber=k,
                            nodes=nodes)


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
    return BoundaryOperator(_weighted_sum(pw, m1, m2), kind="Kstar_omega", wavenumber=k,
                            nodes=nodes)


def eval_potential(nodes, density, k, points):
    """
    Single-layer potential S^k[phi] at points off the boundary, by direct
    quadrature: eval_potential_on for the TargetSet of the points.

    Accuracy degrades near the boundary; points closer than twice the
    node spacing are rejected.
    """
    nodes = _require_2d(nodes)
    return eval_potential_on(nodes, TargetSet.of(nodes, points), density, k)


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
    gk = grad_gamma_laplace(dx, 2) if k == 0 else grad_gamma_helmholtz(dx, k, 2)
    return np.einsum("mjd,j...->md...", gk, (density.T * nodes.weights).T)


def _checked_density(nodes, density):
    density = np.asarray(density)
    if density.shape != (nodes.n,):
        raise ValueError(f"density must have shape ({nodes.n},)")
    return density


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
class InteriorKernels:
    """
    The wavenumber-k interior data of gradient_energy, built on the first
    call of tables(). On a NodeSet: _potential_kernel on the coarse grid
    and the collar edge of nodes.interior. On a sphere (L, R): per
    harmonic slot of degree n the radial integrals of
    g_n(r) = j_n(k r)/j_n(k R),

        i_mass = int_0^R |g_n|^2 r^2 dr,
        i_grad = int_0^R (|g_n'|^2 + n(n+1) |g_n/r|^2) r^2 dr,

    from terms, sph_terms(np.arange(L + 1), k R) as sphere_operators
    takes it, when given: below |k| R = 0.5 as double series of the
    terms of the j_n series at k R (_sphere_radial_series, within 4.4e-16
    of 40-digit values), above it by the 48-point Gauss-Legendre rule
    over Bessel values at k r (within 3e-13).

    A sweep keeps one per grid point for the energies of its direct and
    spectral densities, so each is built once per point and freed with it.
    """

    geometry: object
    k: complex
    terms: object = None
    _tables: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.geometry, NodeSet):
            L, R = self.geometry
            self.geometry = (int(L), float(R))

    def tables(self):
        """(coarse, edge) kernel matrices, or the sphere's (i_mass, i_grad)."""
        if self._tables is None:
            if isinstance(self.geometry, NodeSet):
                quad = self.geometry.interior
                self._tables = (_potential_kernel(quad.coarse, self.k),
                                _potential_kernel(quad.edge, self.k))
            else:
                self._tables = _sphere_radial_table(*self.geometry, self.k, self.terms)
        return self._tables


def eval_potential_on(nodes, targets, density, k):
    """
    Single-layer potential S^k[phi] on a TargetSet of the nodes, with the
    kernel of _potential_kernel.
    """
    wphi = nodes.weights * _checked_density(nodes, density)
    return _potential_kernel(targets, k) @ wphi


# ---------------------------------------------------------------- sphere


# smallest spherical-harmonic truncation degree a sphere accepts
MIN_SPHERE_DEGREE = 4


def sphere_degree_index(L):
    """Degree n of each flattened (n, m) spherical-harmonic slot."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def _sphere_radial_table(L, radius, k, den=None):
    """
    The sphere's (i_mass, i_grad) of InteriorKernels, one entry per slot;
    den, when given, is sph_terms(np.arange(L + 1), k radius). Series
    terms give _sphere_radial_series, Bessel values (|k| R >= 0.5) the
    48-point Gauss-Legendre rule over [0, R], within 3e-13 relative.
    """
    n = np.arange(L + 1)
    if den is None:
        den = sph_terms(n, complex(k * radius))
    if den.series:
        i_mass, i_grad = _sphere_radial_series(radius, den)
    else:
        x, w = GAUSS_48
        r = 0.5 * radius * (x + 1.0)
        w = 0.5 * radius * w
        g, gp = sph_j_ratio_from(sph_terms(n, k * r, den.series), den)
        i_mass = np.sum(w * np.abs(g) ** 2 * r * r, axis=1)
        centrifugal = (n * (n + 1))[:, None] * np.abs(g / r) ** 2
        i_grad = np.sum(w * (np.abs(k * gp) ** 2 + centrifugal) * r * r, axis=1)
    deg = sphere_degree_index(L)
    return i_mass[deg], i_grad[deg]


def _sphere_radial_series(radius, den):
    """
    (i_mass, i_grad) per degree from the series SphTerms den at z = k R.
    With t_m the terms of A_n(z), g_n(r) = (r/R)^n sum_m t_m (r/R)^{2m}
    / A_n(z). Integrated term by term, with P_s and Q_s the sums of
    t_m conj(t_p) and of m p t_m conj(t_p) over m + p = s, and
    |A_n|^2 = sum_s P_s:

        i_mass = R^3 / (2n+3) (1 - 2 sum_s s P_s / (2n+2s+3) / sum_s P_s),
        i_grad = R (n + 4 sum_s Q_s / (2n+2s+1) / sum_s P_s).

    Each is its s = 0 value plus a small correction, so both are accurate
    to rounding: within 4.4e-16 relative of 40-digit values at degrees
    0..40 below the cut. i_grad is the volume integral, not the Green
    identity, so it checks gradient_energy independently.
    """
    n, z2 = den.n, -0.5 * complex(den.z) ** 2
    # t_m by the recurrence of _sph_series; degree 0's terms shrink slowest
    # and stop below 1e-17 of its t_1, which leads its i_grad
    M, size = 2, abs(z2) / 10
    while size >= 1e-17:
        M += 1
        size *= abs(z2) / (M * (2 * M + 1))
    m = np.arange(M)
    t = np.ones((2, n.size, M), dtype=complex)
    t[0, :, 1:] = z2 / (m[1:] * (2 * n[:, None] + 1 + 2 * m[1:]))
    t[0] = np.cumprod(t[0], axis=1)
    t[1] = m * t[0]
    t_conj = t.conj()
    conv = np.zeros((2, n.size, 2 * M - 1))
    for i in m:
        conv[:, :, i:i + M] += (t[:, :, i:i + 1] * t_conj).real
    p_s, q_s = conv
    s = np.arange(2 * M - 1)
    e = 2 * n[:, None] + 2 * s
    norm = p_s.sum(axis=1)
    i_mass = 1.0 - 2.0 * np.sum(s * p_s / (e + 3), axis=1) / norm
    i_grad = n + 4.0 * np.sum(q_s / (e + 1), axis=1) / norm
    return radius ** 3 / (2 * n + 3) * i_mass, radius * i_grad


def sphere_operators(L, R, k=0.0, terms=None):
    """
    Diagonal operators on the radius-R sphere over real spherical
    harmonics flattened as (n, m), m = -n..n, n = 0..L, each stored as
    its 1-D diagonal:

        S    -> -R/(2n+1)
        K*   ->  1/(2(2n+1))
        S^k  -> -i k R^2 j_n(kR) h_n(kR)
        K^k* -> -(i k^2 R^2 / 2) (j_n h_n)'(kR)

    Returns (S, K*) for k = 0 and (S, K*, S^k, K^k*) otherwise. The
    Bessel products are series-evaluated for |k|R < 0.5 where the raw
    h_n overflow; terms, when given, is sph_terms(np.arange(L + 1), k R).
    """
    if L < MIN_SPHERE_DEGREE:
        raise ValueError(f"truncation degree L must be >= {MIN_SPHERE_DEGREE}")
    if R <= 0:
        raise ValueError("R must be positive")
    k = complex(k)
    if abs(k) * R > 10.0:
        raise ValueError("|k| R must be <= 10")
    deg = sphere_degree_index(L)
    s_diag = -R / (2.0 * deg + 1.0)
    kstar_diag = 1.0 / (2.0 * (2.0 * deg + 1.0))
    s_op = BoundaryOperator(s_diag, kind="S", wavenumber=0.0, nodes=(L, R))
    kstar_op = BoundaryOperator(kstar_diag, kind="Kstar", wavenumber=0.0, nodes=(L, R))
    if k == 0:
        return s_op, kstar_op
    jh, jhp = sph_jh_from(terms or sph_terms(np.arange(L + 1), k * R))
    sk_diag = -1j * k * R * R * jh[deg]
    kk_diag = -0.5j * k * k * R * R * jhp[deg]
    sk_op = BoundaryOperator(sk_diag, kind="S_omega", wavenumber=k, nodes=(L, R))
    kk_op = BoundaryOperator(kk_diag, kind="Kstar_omega", wavenumber=k, nodes=(L, R))
    return s_op, kstar_op, sk_op, kk_op
