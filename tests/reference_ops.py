"""
Reference routes that only the tests use: independent second
computations of numbers the package produces another way.

* The low-frequency remainders of the Helmholtz layer operators,

      S^w  = S  + tau(w) <., 1> + w^2 ln w * R2   (2D)
      K^w* = K* + w^2 ln w * Q2                   (2D)
      S^w  = S  + w * R3,  K^w* = K* + w^2 * Q3   (sphere),

  with R2 assembled from its own series remainder kernel and its own
  log split (assemble_R_Q, remainder_kernel_radial, _j0m1,
  _expm1_over_z). The closure S^w = S + tau(w) <., 1> + w^2 ln w R2
  therefore checks the Hankel-valued S^w by a second route.
* Real spherical harmonics and a surface quadrature of the sphere's
  single and adjoint double layers (real_sph_harm,
  sphere_diagonal_by_quadrature), an independent route to the
  diagonals of sphere_operators.
* Closed forms of the sphere's radial integrals in mpmath: the
  energy's (sphere_radial_integrals_mp), the reference of the package's
  series, and the coupling's, inside the whole coupling a_n by the
  volume route (coupling_an_mp), the reference of the package's
  boundary identity.
* The sphere's transmission system as one dense 2(L+1)^2 matrix
  (dense_sphere_system), the oracle of the per-slot direct solve.

Test modules import it as `reference_ops`: `pyproject.toml` puts
tests/ on pytest's import path.
"""

import numpy as np
from scipy import special

from plasmonres.geometry import NodeSet, Sphere
from plasmonres.layer_ops import (
    assemble_Kstar,
    assemble_Kstar_omega,
    helmholtz_operators,
    sphere_operators,
)
from plasmonres.specfun import EULER_GAMMA, OMEGA_MAX, tau
from plasmonres.transmission import dipole_traces

# below this omega r the 2D remainder kernel is summed from its series
_SERIES_CUT = 0.5


def remainder_kernel_radial(r, omega, d):
    """
    Remainder kernel of the low-frequency expansion of the Helmholtz
    fundamental solution, as a function of the distance r = |x|:

        d=2:  K2(x) = [Gamma^w(x) - Gamma(x) - tau(w)] / (w^2 ln w)
        d=3:  K3(x) = [Gamma^w(x) - Gamma(x)] / w

    Both are evaluated by power series where the direct difference would
    cancel catastrophically. K3 is bounded at x = 0 with value -i/(4 pi).
    """
    omega = float(omega)
    if not 0 < omega <= OMEGA_MAX:
        raise ValueError(f"omega must lie in (0, {OMEGA_MAX}]")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    if d == 3:
        return -1j / (4.0 * np.pi) * _expm1_over_z(1j * omega * r)
    if d != 2:
        raise ValueError("d must be 2 or 3")
    if np.any(r == 0):
        raise ValueError("2D remainder kernel is singular at x = 0")
    scalar = np.ndim(r) == 0
    z = np.atleast_1d(omega * r)
    small = z < _SERIES_CUT
    vals = np.empty(z.shape, dtype=complex)
    # series: sum_{m>=1} (-1)^m (z/2)^{2m}/(m!)^2 [ (ln(z/2)+gamma-h_m)/(2pi) - i/4 ]
    if np.any(small):
        zs = z[small]
        logterm = np.log(zs / 2.0) + EULER_GAMMA
        acc = np.zeros(zs.shape, dtype=complex)
        coeff = np.ones(zs.shape)
        h = 0.0
        for m in range(1, 40):
            coeff = coeff * (-((zs / 2.0) ** 2)) / (m * m)
            h += 1.0 / m
            term = coeff * ((logterm - h) / (2.0 * np.pi) - 0.25j)
            acc += term
            if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(acc)), 1e-30):
                break
        vals[small] = acc
    if np.any(~small):
        zl = z[~small]
        vals[~small] = (
            -0.25j * special.hankel1(0, zl)
            - np.log(zl / omega) / (2.0 * np.pi)
            - tau(omega)
        )
    vals = vals / (omega * omega * np.log(omega))
    return complex(vals[0]) if scalar else vals.reshape(np.shape(r))


def _expm1_over_z(z):
    """(exp(z) - 1)/z via the series sum_{m>=0} z^m/(m+1)!, value 1 at z = 0."""
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape, dtype=complex)
    big = np.abs(z) >= 0.25
    if np.any(big):
        out[big] = (np.exp(z[big]) - 1.0) / z[big]
    small = ~big & (z != 0)
    if np.any(small):
        zs = z[small]
        acc = np.zeros(zs.shape, dtype=complex)
        power = np.ones(zs.shape, dtype=complex)
        fact = 1.0
        for m in range(25):
            fact = fact * (m + 1)
            contrib = power / fact
            acc = acc + contrib
            power = power * zs
            if np.max(np.abs(contrib)) < 1e-20:
                break
        out[small] = acc
    return out if out.shape else complex(out)


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
    d = 3 pass nodes = (L, R); the operators are 1-D diagonals. Returns
    the pair of arrays (R, Q).
    """
    omega = float(omega)
    if not 0 < omega <= OMEGA_MAX:
        raise ValueError(f"omega must lie in (0, {OMEGA_MAX}]")
    if d == 3:
        L, radius = nodes
        s0, k0 = sphere_operators(Sphere(L, radius))
        sw, kw = sphere_operators(Sphere(L, radius), omega)
        return (sw - s0) / omega, (kw - k0) / omega**2
    if d != 2:
        raise ValueError("d must be 2 or 3")
    if not isinstance(nodes, NodeSet):
        raise TypeError("expected a 2D NodeSet")
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
    q2 = (assemble_Kstar_omega(nodes, omega) - assemble_Kstar(nodes)) / scale
    return r2, q2


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


def _mp_a(mp, n, z):
    """A_n(z) = 0F1(; n + 3/2; -z^2/4), so that j_n(z) = z^n / (2n+1)!! A_n(z)."""
    return mp.hyp0f1(n + mp.mpf(3) / 2, -z * z / 4)


def sphere_radial_integrals_mp(n, k, radius, dps=50):
    """
    (i_mass, i_grad) of a sphere pair's HelmholtzOperators.tables at degree n, as
    floats from dps-digit mpmath, by closed forms that share nothing with
    the package's term-by-term series. With g = j_n(k r)/j_n(k R) and
    z = k R, Green's identity for the radial mode u = g Y_n gives

        i_grad = Re(R^2 g'(R)) + Re(k^2) i_mass,
        i_mass = -Im(R^2 g'(R)) / Im(k^2)          (Im k^2 != 0),
        i_mass = R^3 / 2 (1 - j_{n-1} j_{n+1} / j_n^2)(z)   (real k, Lommel),

    with R g'(R) = n - z^2 A_{n+1}(z) / ((2n+3) A_n(z)).
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        R = mp.mpf(radius)
        z = mp.mpc(complex(k).real, complex(k).imag) * R
        z2 = z * z
        ratio = z2 * _mp_a(mp, n + 1, z) / ((2 * n + 3) * _mp_a(mp, n, z))
        if mp.im(z2) != 0:
            i_mass = R ** 3 * mp.im(ratio) / mp.im(z2)
        else:
            lommel = (_mp_a(mp, n - 1, z) * _mp_a(mp, n + 1, z) / _mp_a(mp, n, z) ** 2
                      * mp.mpf(2 * n + 1) / (2 * n + 3))
            i_mass = R ** 3 / 2 * (1 - mp.re(lommel))
        i_grad = R * mp.re(n - ratio) + mp.re(z2) / R ** 2 * i_mass
        return float(mp.re(i_mass)), float(i_grad)


def coupling_an_mp(n, omega, radius, z0, dps=50):
    """
    The coupling a_n of the unit axial dipole at distance z0 to the
    sphere's degree-n pole mode beta_n Yhat_n0, beta_n = sqrt((2n+1)/R),
    as a complex from dps-digit mpmath by the volume route

        a_n = beta_n F_n + omega^2 int_D F_z S[phi_n] dV,

    which shares nothing with the package's boundary identity. With
    c_n = sqrt((2n+1)/4pi), the trace coefficient is
    F_n = -i omega^2 c_n R j_n(omega R) h_n'(omega z0), and the volume
    term is i omega^2 c_n beta_n / (2n+1) h_n'(omega z0) times the radial
    integral int_0^R j_n(omega r) (r/R)^n r^2 dr, which
    d/dz (z^{n+1} j_{n+1}(z)) = z^{n+1} j_n(z) closes as
    R^2 j_{n+1}(omega R) / omega. Spherical Bessel values come from
    mpmath's half-integer-order J and Y.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        R, z0, om = mp.mpf(radius), mp.mpf(z0), mp.mpf(omega)

        def sph(order, z):
            # (j, y) of one order by J and Y of order + 1/2
            c = mp.sqrt(mp.pi / (2 * z))
            nu = order + mp.mpf(1) / 2
            return c * mp.besselj(nu, z), c * mp.bessely(nu, z)

        zz = om * z0
        h_n, h_next = (mp.mpc(*sph(m, zz)) for m in (n, n + 1))
        hp = n / zz * h_n - h_next  # h_n' = (n/z) h_n - h_{n+1}
        cn = mp.sqrt((2 * n + 1) / (4 * mp.pi))
        beta = mp.sqrt((2 * n + 1) / R)
        surface = -1j * om ** 2 * cn * R * sph(n, om * R)[0] * hp * beta
        radial = R * R * sph(n + 1, om * R)[0] / om
        vol = 1j * om ** 2 * cn * beta / (2 * n + 1) * hp * radial
        return complex(surface + om ** 2 * vol)


def dense_sphere_system(problem):
    """
    The sphere problem's transmission system (A, b) in dense form,

        [ S^{k_c}                      -S^omega          ] [phi]   [ F_z      ]
        [ (eps+i d)(-1/2 + K^{k_c}*)   -(1/2 + K^omega*) ] [psi] = [ d_nu F_z ],

    every block the np.diag of its sphere_operators diagonal.
    """
    at_kc = helmholtz_operators(problem.geometry, problem.kc)
    at_omega = helmholtz_operators(problem.geometry, problem.omega)
    s_in, k_in, s_out, k_out = at_kc.s, at_kc.kstar, at_omega.s, at_omega.kstar
    epsd = problem.eps_eff + 1j * problem.delta_eff
    a_mat = np.block([[np.diag(s_in), np.diag(-s_out)],
                      [np.diag(epsd * (-0.5 + k_in)), np.diag(-(0.5 + k_out))]])
    return a_mat, np.concatenate(dipole_traces(problem))
