"""
Fundamental solutions and special functions.

Covers the Laplace and Helmholtz free-space kernels in two and three
dimensions, their gradients, the low-frequency expansion constant tau,
the remainder kernels of the expansion of the Helmholtz kernel around
the Laplace kernel, and spherical Bessel utilities including
cancellation-safe product forms needed on the sphere at very small
wavenumbers.

Conventions: the Laplace fundamental solution is (1/2pi) ln|x| in 2D and
-1/(4pi|x|) in 3D; the outgoing Helmholtz fundamental solution is
-(i/4) H0(k|x|) in 2D and -exp(ik|x|)/(4pi|x|) in 3D.
"""

import numpy as np
from scipy import special

__all__ = [
    "EULER_GAMMA",
    "gamma_laplace",
    "hankel_first_kind",
    "gamma_helmholtz",
    "gamma_helmholtz_series",
    "grad_gamma_laplace",
    "grad_gamma_helmholtz",
    "tau",
    "tau_kc",
    "remainder_kernel_radial",
    "compute_kc",
    "spherical_bessel",
    "sph_jh_product",
    "sph_jh_product_deriv",
    "sph_j_ratio",
    "sph_j_ratio_deriv",
    "sph_jh_cross",
]

EULER_GAMMA = 0.5772156649015328606

# remainder kernels are validated on 0 < omega <= OMEGA_MAX
OMEGA_MAX = 0.5

# below this |z| the spherical Bessel products switch to power series
_SPH_SERIES_CUT = 0.5


def _radii(x, d):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"points must have trailing dimension {d}")
    return np.sqrt(np.sum(x * x, axis=-1))


def gamma_laplace(x, d):
    """Laplace fundamental solution at points x, shape (..., d)."""
    r = _radii(x, d)
    if np.any(r == 0):
        raise ValueError("fundamental solution is singular at x = 0")
    if d == 2:
        return np.log(r) / (2.0 * np.pi)
    if d == 3:
        return -1.0 / (4.0 * np.pi * r)
    raise ValueError("d must be 2 or 3")


def grad_gamma_laplace(x, d):
    """Gradient of the Laplace fundamental solution, shape (..., d)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)[..., None]
    if np.any(r2 == 0):
        raise ValueError("gradient is singular at x = 0")
    if d == 2:
        return x / (2.0 * np.pi * r2)
    if d == 3:
        return x / (4.0 * np.pi * r2 ** 1.5)
    raise ValueError("d must be 2 or 3")


def hankel_first_kind(n, z):
    """Hankel function of the first kind H_n(z), n in {0, 1}, complex z != 0."""
    if n not in (0, 1):
        raise ValueError("order must be 0 or 1")
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("Hankel function is singular at z = 0")
    return special.hankel1(n, z)


def gamma_helmholtz(x, k, d):
    """Outgoing Helmholtz fundamental solution at wavenumber k != 0."""
    if k == 0:
        raise ValueError("k must be nonzero; use gamma_laplace for the static kernel")
    r = _radii(x, d)
    if np.any(r == 0):
        raise ValueError("fundamental solution is singular at x = 0")
    if d == 2:
        return -0.25j * special.hankel1(0, k * r)
    if d == 3:
        return -np.exp(1j * k * r) / (4.0 * np.pi * r)
    raise ValueError("d must be 2 or 3")


def gamma_helmholtz_series(log_r, r2, k):
    """
    2D outgoing Helmholtz fundamental solution -(i/4) H0(k r) from
    precomputed ln r and r^2, by the low-frequency series

        -(i/4) H0(kr) = (ln r / 2pi + tau(k)) J0(kr) - (1/2pi) sum_{m>=1} c_m H_m r^{2m},
        J0(kr) = 1 + sum_{m>=1} c_m r^{2m},   c_m = (-1)^m (k/2)^{2m} / (m!)^2,

    with H_m the harmonic numbers and tau on the principal branch
    (tau_kc), so complex k is allowed. Only ln r enters beside powers of
    r^2: every k-dependence sits in scalar coefficients. Terms are
    summed by Horner's rule until they fall below 1e-20 at the largest
    r. Relative error against mpmath is a few 1e-16 up to |k| r = 2;
    beyond that the alternating terms start to cancel.
    """
    k = complex(k)
    r2 = np.asarray(r2, dtype=float)
    r2max = float(np.max(r2, initial=0.0))
    coeffs = []
    c, harmonic = 1.0 + 0.0j, 0.0
    for m in range(1, 60):
        c = c * (-0.25 * k * k) / (m * m)
        harmonic += 1.0 / m
        if abs(c) * r2max**m * (1.0 + harmonic) < 1e-20:
            break
        coeffs.append((c, c * harmonic / (2.0 * np.pi)))
    j0m1 = np.zeros(r2.shape, dtype=complex)
    hsum = np.zeros(r2.shape, dtype=complex)
    for c, ch in reversed(coeffs):
        j0m1 += c
        j0m1 *= r2
        hsum += ch
        hsum *= r2
    return (np.asarray(log_r) / (2.0 * np.pi) + tau_kc(k)) * (1.0 + j0m1) - hsum


def grad_gamma_helmholtz(x, k, d):
    """Gradient of the Helmholtz fundamental solution, shape (..., d)."""
    if k == 0:
        raise ValueError("k must be nonzero")
    x = np.asarray(x, dtype=float)
    r = _radii(x, d)
    if np.any(r == 0):
        raise ValueError("gradient is singular at x = 0")
    rhat = x / r[..., None]
    if d == 2:
        radial = 0.25j * k * special.hankel1(1, k * r)
    elif d == 3:
        radial = np.exp(1j * k * r) * (1.0 - 1j * k * r) / (4.0 * np.pi * r * r)
    else:
        raise ValueError("d must be 2 or 3")
    return radial[..., None] * rhat


def tau(omega):
    """Constant term of the low-frequency expansion of the 2D Helmholtz kernel."""
    omega = float(omega)
    if omega <= 0:
        raise ValueError("omega must be positive")
    return (np.log(omega) + EULER_GAMMA - np.log(2.0)) / (2.0 * np.pi) - 0.25j


def tau_kc(kc):
    """Same constant with a complex wavenumber; principal-branch logarithm."""
    kc = complex(kc)
    if kc == 0:
        raise ValueError("kc must be nonzero")
    return (np.log(kc) + EULER_GAMMA - np.log(2.0)) / (2.0 * np.pi) - 0.25j


def compute_kc(omega, eps_c, delta):
    """
    Interior wavenumber of the lossy inclusion:

        k_c = -i (omega / sqrt(|eps_c|)) (1 - i delta / (2 eps_c)).

    Requires eps_c < 0, delta > 0, omega > 0. The result always lies in
    the fourth quadrant (Re > 0, Im < 0) on that parameter region.
    """
    if eps_c >= 0:
        raise ValueError("eps_c must be negative")
    if delta <= 0 or omega <= 0:
        raise ValueError("delta and omega must be positive")
    return -1j * (omega / np.sqrt(abs(eps_c))) * (1.0 - 1j * delta / (2.0 * eps_c))


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
    small = z < _SPH_SERIES_CUT
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


def spherical_bessel(n, z):
    """
    Spherical Bessel and outgoing spherical Hankel values (j_n(z), h_n(z)).

    Accurate for |z| <= 20 and n <= 40; h_n grows like (2n-1)!!/z^{n+1}
    for small |z|, so callers in that regime should use the product
    forms below instead of raw values.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("spherical Hankel function is singular at z = 0")
    jn = special.spherical_jn(n, z)
    yn = special.spherical_yn(n, z)
    return jn, jn + 1j * yn


def _sph_series(n, z, with_deriv=False):
    """
    Regular series factors A, B of the small-argument representations

        j_n(z) =  z^n / (2n+1)!! * A(z),
        y_n(z) = -(2n-1)!! / z^{n+1} * B(z),

    with A, B -> 1 as z -> 0. Returns (A, B) or (A, B, A', B') of shape
    n.shape + z.shape; each degree's series stops as it would alone.
    """
    z = np.asarray(z, dtype=complex)
    n = np.asarray(n)
    nz = n.reshape(n.shape + (1,) * z.ndim)
    shape = n.shape + z.shape
    z2 = -0.5 * z * z
    A, B, ca, cb = (np.ones(shape, dtype=complex) for _ in range(4))
    dA, dB = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    live = np.ones(nz.shape, dtype=bool)
    for m in range(1, 60):
        ca = ca * z2 / (m * (2 * nz + 2 * m + 1))
        cb = cb * z2 / (m * (2 * m - 2 * nz - 1))
        A = np.where(live, A + ca, A)
        B = np.where(live, B + cb, B)
        if with_deriv:
            # d/dz of a term c_m z^{2m} is 2m c_m z^{2m-1}
            with np.errstate(divide="ignore", invalid="ignore"):
                dA = np.where(live, dA + 2 * m * ca / z, dA)
                dB = np.where(live, dB + 2 * m * cb / z, dB)
        size = np.maximum(np.abs(ca), np.abs(cb)).reshape(nz.shape + (-1,))
        live &= ~(size.max(axis=-1) < 1e-20)
        if not live.any():
            break
    if with_deriv:
        return A, B, dA, dB
    return A, B


def _dfact(n):
    """Double factorial (2n+1)!! as float, elementwise over n >= 0."""
    n = np.asarray(n)
    # (2n+1)!! is inf from n = 150 on, which is the intended limit: the
    # series callers divide z^n by it at |z| < 0.5, where z^n / (2n+1)!!
    # lies below the smallest double and rounds to 0 either way
    with np.errstate(over="ignore"):
        return np.cumprod(np.arange(1.0, 2.0 * n.max() + 2.0, 2.0))[n]


def sph_jh_product(n, z):
    """
    j_n(z) h_n(z), stable down to |z| -> 0 (where it behaves like
    -i / ((2n+1) z) and raw h_n overflows). For an array of degrees n
    the result has shape n.shape + z.shape.
    """
    z = np.asarray(z, dtype=complex)
    nn = np.asarray(n)[..., None]
    small = np.abs(z) < _SPH_SERIES_CUT
    out = np.empty(np.shape(n) + z.shape, dtype=complex)
    if np.any(small):
        zs = z[small]
        A, B = _sph_series(n, zs)
        jy = -A * B / ((2 * nn + 1) * zs)
        jj = (zs ** nn / _dfact(nn)) ** 2 * A * A
        out[..., small] = jj + 1j * jy
    if np.any(~small):
        zl = z[~small]
        jn = special.spherical_jn(nn, zl)
        out[..., ~small] = jn * (jn + 1j * special.spherical_yn(nn, zl))
    return out if out.shape else complex(out)


def sph_jh_product_deriv(n, z):
    """d/dz of j_n(z) h_n(z), stable down to |z| -> 0; n as in sph_jh_product."""
    z = np.asarray(z, dtype=complex)
    nn = np.asarray(n)[..., None]
    small = np.abs(z) < _SPH_SERIES_CUT
    out = np.empty(np.shape(n) + z.shape, dtype=complex)
    if np.any(small):
        zs = z[small]
        A, B, dA, dB = _sph_series(n, zs, with_deriv=True)
        c = 1.0 / (2 * nn + 1)
        # (j y)' from j y = -A B / ((2n+1) z)
        jy_d = -c * (dA * B + A * dB) / zs + c * A * B / (zs * zs)
        # (j^2)' = 2 j j'
        jfac = zs ** nn / _dfact(nn)
        j = jfac * A
        jp = jfac * (nn * A / zs + dA)
        out[..., small] = 2.0 * j * jp + 1j * jy_d
    if np.any(~small):
        zl = z[~small]
        jn = special.spherical_jn(nn, zl)
        yn = special.spherical_yn(nn, zl)
        jnp = special.spherical_jn(nn, zl, derivative=True)
        ynp = special.spherical_yn(nn, zl, derivative=True)
        out[..., ~small] = jnp * (jn + 1j * yn) + jn * (jnp + 1j * ynp)
    return out if out.shape else complex(out)


def sph_j_ratio(n, z_num, z_den):
    """
    j_n(z_num) / j_n(z_den), stable when both arguments are small
    (the (z_num/z_den)^n prefactor is formed directly). For an array of
    degrees n the result has shape n.shape + z_num.shape.
    """
    z_num = np.asarray(z_num, dtype=complex)
    z_den = complex(z_den)
    nn = np.reshape(n, np.shape(n) + (1,) * z_num.ndim)
    if abs(z_den) < _SPH_SERIES_CUT:
        A_num, _ = _sph_series(n, z_num)
        A_den, _ = _sph_series(nn, z_den)
        return (z_num / z_den) ** nn * A_num / A_den
    jd = special.spherical_jn(nn, np.asarray(z_den, dtype=complex))
    return special.spherical_jn(nn, z_num) / jd


def sph_j_ratio_deriv(n, z_num, z_den):
    """
    j_n'(z_num) / j_n(z_den), stable when both arguments are small; n as
    in sph_j_ratio.

    From j_n(z) = z^n / (2n+1)!! * A(z) the derivative is
    z^{n-1} (n A + z A') / (2n+1)!!, so the double factorials cancel and
    the ratio is (z_num/z_den)^{n-1} (n A_num + z_num A_num') / (z_den A_den),
    A_num' / A_den at n = 0: only the size ratio is raised to a power,
    since z_num^{n-1} and z_den^n alone underflow at high degree. z_num
    may not contain 0 when n = 0 (A'(0) is formed as a 0/0 limit the
    series code does not take).
    """
    z_num = np.asarray(z_num, dtype=complex)
    z_den = complex(z_den)
    nn = np.reshape(n, np.shape(n) + (1,) * z_num.ndim)
    if abs(z_den) < _SPH_SERIES_CUT:
        A_num, _, dA_num, _ = _sph_series(n, z_num, with_deriv=True)
        A_den, _ = _sph_series(nn, z_den)
        ratio = (z_num / z_den) ** (nn - 1) * (nn * A_num + z_num * dA_num)
        return np.where(nn == 0, dA_num / A_den, ratio / (z_den * A_den))
    jd = special.spherical_jn(nn, np.asarray(z_den, dtype=complex))
    return special.spherical_jn(nn, z_num, derivative=True) / jd


def sph_jh_cross(n, z1, z2):
    """
    j_n(z1) h_n'(z2), stable for small arguments.

    Uses j_n h_n' = ((j_n h_n)' + i/z^2) / 2 (Wronskian
    j_n h_n' - j_n' h_n = i/z^2) at z2, then rescales by the ratio
    j_n(z1)/j_n(z2); every factor stays O(1) even when raw h_n'
    would overflow.
    """
    z2 = complex(z2)
    jhp = 0.5 * (sph_jh_product_deriv(n, z2) + 1j / (z2 * z2))
    return sph_j_ratio(n, z1, z2) * jhp
