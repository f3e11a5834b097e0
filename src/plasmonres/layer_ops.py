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

The sphere needs no quadrature: all four operators are diagonal in the
spherical-harmonic basis, and `sphere_operators` returns them stored as
their 1-D diagonals (with cancellation-safe Bessel products at small
wavenumber), never as dense matrices.
`sphere_diagonal_by_quadrature` provides an independent surface-quadrature
route to the same numbers for validation.

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
    OMEGA_MAX,
    gamma_helmholtz_series,
    grad_gamma_helmholtz,
    grad_gamma_laplace,
    remainder_kernel_radial,
    sph_jh_product,
    sph_jh_product_deriv,
    sph_j_ratio,
    sph_j_ratio_deriv,
)

__all__ = [
    "BoundaryOperator",
    "log_weight_matrix",
    "assemble_S",
    "assemble_Kstar",
    "assemble_S_omega",
    "assemble_Kstar_omega",
    "assemble_R_Q",
    "eval_potential",
    "eval_potential_on",
    "eval_gradient",
    "InteriorKernels",
    "sphere_operators",
    "real_sph_harm",
    "sphere_diagonal_by_quadrature",
    "sphere_degree_index",
]

# largest wavenumber-diameter product the node counts used here resolve
_MAX_K_DIAM = 5.0

# largest |k| r_max over a target set for which off-boundary potentials
# are summed from the low-frequency series of the kernel
_SERIES_KR_MAX = 0.5

# 48-point Gauss-Legendre rule (nodes, weights) on [-1, 1], read-only, for
# the radial integrals of the sphere's interior energy and coupling
GAUSS_48 = np.polynomial.legendre.leggauss(48)
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


def _j0m1(z):
    """J0(z) - 1, series-protected against cancellation for small |z|."""
    z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
    out = np.empty(z.shape, dtype=z.dtype)
    big = np.abs(z) >= 0.5
    if np.any(big):
        out[big] = special.jv(0, z[big]) - 1.0
    if np.any(~big):
        zs = z[~big]
        acc = np.zeros(zs.shape, dtype=zs.dtype)
        coeff = np.ones(zs.shape, dtype=zs.dtype)
        for m in range(1, 20):
            coeff = coeff * (-((zs / 2.0) ** 2)) / (m * m)
            acc = acc + coeff
            if np.max(np.abs(coeff)) < 1e-20:
                break
        out[~big] = acc
    return out


def assemble_R_Q(nodes, omega, d=2):
    """
    Remainder operators of the low-frequency expansions

        S^w  = S  + tau(w) <., 1>   + w^2 ln w * R2   (d = 2)
        S^w  = S  + w * R3                            (d = 3 sphere)
        K^w* = K* + w^2 ln w * Q2                     (d = 2)
        K^w* = K* + w^2 * Q3                          (d = 3 sphere)

    R2 is assembled independently from the series remainder kernel with
    its own log splitting, so the d=2 closure above is a genuine
    two-route identity. Q2 is the operator difference quotient. For
    d = 3 pass nodes = (L, R); the operators are 1-D diagonals.
    """
    omega = float(omega)
    if not 0 < omega <= OMEGA_MAX:
        raise ValueError(f"omega must lie in (0, {OMEGA_MAX}]")
    if d == 3:
        L, radius = nodes
        s0, k0, sw, kw = sphere_operators(L, radius, omega)
        r3 = (sw.matrix - s0.matrix) / omega
        q3 = (kw.matrix - k0.matrix) / omega**2
        return (
            BoundaryOperator(r3, kind="R3", wavenumber=omega),
            BoundaryOperator(q3, kind="Q3", wavenumber=omega),
        )
    if d != 2:
        raise ValueError("d must be 2 or 3")
    nodes = _require_2d(nodes)
    n = nodes.n
    scale = omega * omega * np.log(omega)
    pw = nodes.pairwise
    jac = nodes.jacobians
    # R2: log coefficient (1/4pi)(J0(w r) - 1)|x'|/scale vanishes on the
    # diagonal, and so does the smooth part (the expansion is exact there)
    m1 = _j0m1(omega * pw.r) * jac / (4.0 * np.pi) / scale
    np.fill_diagonal(m1, 0.0)
    k2 = remainder_kernel_radial(pw.r, omega, 2)
    m2 = k2 * jac - m1 * pw.logsin
    np.fill_diagonal(m2, 0.0)
    r2 = pw.log_weights * m1 + (2.0 * np.pi / n) * m2
    q2 = (
        assemble_Kstar_omega(nodes, omega).matrix - assemble_Kstar(nodes).matrix
    ) / scale
    return (
        BoundaryOperator(r2, kind="R2", wavenumber=omega, nodes=nodes),
        BoundaryOperator(q2, kind="Q2", wavenumber=omega, nodes=nodes),
    )


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
    boundary, shape (m, 2), by direct quadrature of the kernel gradient.
    Points are rejected as by eval_potential.
    """
    nodes = _require_2d(nodes)
    targets = TargetSet.of(nodes, points)
    wphi = nodes.weights * _checked_density(nodes, density)
    dx = targets.points[:, None, :] - nodes.points[None, :, :]
    gk = grad_gamma_laplace(dx, 2) if k == 0 else grad_gamma_helmholtz(dx, k, 2)
    return np.einsum("mjd,j->md", gk, wphi)


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
    harmonic slot of degree n the radial Gauss-Legendre integrals of
    g_n(r) = j_n(k r)/j_n(k R),

        i_mass = int_0^R |g_n|^2 r^2 dr,
        i_grad = int_0^R (|g_n'|^2 + n(n+1) |g_n/r|^2) r^2 dr.

    A sweep keeps one per grid point for the energies of its direct and
    spectral densities, so each is built once per point and freed with it.
    """

    geometry: object
    k: complex
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
                self._tables = _sphere_radial_table(*self.geometry, self.k)
        return self._tables


def eval_potential_on(nodes, targets, density, k):
    """
    Single-layer potential S^k[phi] on a TargetSet of the nodes, with the
    kernel of _potential_kernel.
    """
    wphi = nodes.weights * _checked_density(nodes, density)
    return _potential_kernel(targets, k) @ wphi


# ---------------------------------------------------------------- sphere


def sphere_degree_index(L):
    """Degree n of each flattened (n, m) spherical-harmonic slot."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


def _sphere_radial_table(L, radius, k):
    """The sphere's (i_mass, i_grad) of InteriorKernels, one entry per slot."""
    x, w = GAUSS_48
    r = 0.5 * radius * (x + 1.0)
    w = 0.5 * radius * w
    n = np.arange(L + 1)
    g = sph_j_ratio(n, k * r, k * radius)
    gp = k * sph_j_ratio_deriv(n, k * r, k * radius)
    i_mass = np.sum(w * np.abs(g) ** 2 * r * r, axis=1)
    centrifugal = (n * (n + 1))[:, None] * np.abs(g / r) ** 2
    i_grad = np.sum(w * (np.abs(gp) ** 2 + centrifugal) * r * r, axis=1)
    deg = sphere_degree_index(L)
    return i_mass[deg], i_grad[deg]


def sphere_operators(L, R, k=0.0):
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
    h_n overflow.
    """
    if L < 4:
        raise ValueError("truncation degree L must be >= 4")
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
    z = k * R
    jh = sph_jh_product(np.arange(L + 1), z)
    jhp = sph_jh_product_deriv(np.arange(L + 1), z)
    sk_diag = -1j * k * R * R * jh[deg]
    kk_diag = -0.5j * k * k * R * R * jhp[deg]
    sk_op = BoundaryOperator(sk_diag, kind="S_omega", wavenumber=k, nodes=(L, R))
    kk_op = BoundaryOperator(kk_diag, kind="Kstar_omega", wavenumber=k, nodes=(L, R))
    return s_op, kstar_op, sk_op, kk_op


def real_sph_harm(n, m, points):
    """
    Real spherical harmonic Y_nm at cartesian points (any radius;
    directions are used). Orthonormal over the unit sphere: Y_n0 uses
    P_n(cos theta), m > 0 pairs with cos(m phi), m < 0 with sin(|m| phi),
    Condon-Shortley phase as in scipy's lpmv.
    """
    if abs(m) > n:
        raise ValueError("|m| must be <= n")
    points = np.asarray(points, dtype=float)
    r = np.sqrt(np.sum(points * points, axis=-1))
    if np.any(r == 0):
        raise ValueError("points must be nonzero")
    ct = points[..., 2] / r
    am = abs(m)
    norm = np.sqrt(
        (2.0 * n + 1.0)
        / (4.0 * np.pi)
        * special.gamma(n - am + 1.0)
        / special.gamma(n + am + 1.0)
    )
    leg = special.lpmv(am, n, ct)
    if m == 0:
        return norm * leg
    phi = np.arctan2(points[..., 1], points[..., 0])
    trig = np.cos(am * phi) if m > 0 else np.sin(am * phi)
    return np.sqrt(2.0) * norm * leg * trig


def sphere_diagonal_by_quadrature(
    n, m, R, k=0.0, which="S", x0=None, n_theta=80, n_phi=32
):
    """
    Independent surface-quadrature estimate of a sphere diagonal.

    Evaluates S^k[Y_nm] or K^k*[Y_nm] at a boundary point x0 by direct
    integration in polar coordinates centered on x0, where the kernel
    singularity cancels against the area element: with distance
    rho = 2 R sin(theta'/2) the integrand becomes smooth, so the product
    rule converges spectrally. Returns the estimate of the diagonal,
    quad_value / Y_nm(x0).
    """
    if which not in ("S", "Kstar"):
        raise ValueError("which must be 'S' or 'Kstar'")
    k = complex(k)
    if x0 is None:
        x0 = np.array([0.6, 0.25, 0.76])
    zax = np.asarray(x0, dtype=float)
    zax = zax / np.linalg.norm(zax)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(zax @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = helper - (helper @ zax) * zax
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(zax, e1)
    # Gauss-Legendre in theta' on [0, pi], trapezoid in phi'
    xi, wxi = np.polynomial.legendre.leggauss(n_theta)
    th = 0.5 * np.pi * (xi + 1.0)
    wth = 0.5 * np.pi * wxi
    ph = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wph = 2.0 * np.pi / n_phi
    ct, st = np.cos(th), np.sin(th)
    y = R * (
        ct[:, None, None] * zax[None, None, :]
        + st[:, None, None]
        * (
            np.cos(ph)[None, :, None] * e1[None, None, :]
            + np.sin(ph)[None, :, None] * e2[None, None, :]
        )
    )
    yvals = real_sph_harm(n, m, y)
    rho = 2.0 * R * np.sin(th / 2.0)
    phase = np.exp(1j * k * rho) if k != 0 else np.ones(th.shape)
    if which == "S":
        # Gamma^k(rho) R^2 sin(theta') collapses to -(R/4pi) cos(theta'/2) e^{ik rho}
        fth = -(R / (4.0 * np.pi)) * np.cos(th / 2.0) * phase
    else:
        # normal-derivative kernel collapses to (1/8pi)(1 - ik rho) cos(theta'/2) e^{ik rho}
        fth = (1.0 / (8.0 * np.pi)) * (1.0 - 1j * k * rho) * np.cos(th / 2.0) * phase
    quad = np.sum((wth * fth)[:, None] * yvals) * wph
    y0 = real_sph_harm(n, m, zax[None, :])[0]
    if abs(y0) < 1e-12:
        raise ValueError("Y_nm vanishes at x0; choose another point")
    return quad / y0
