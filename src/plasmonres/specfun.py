"""
Fundamental solutions and special functions.

Covers the 2D free-space kernels (Hankel functions, the gradients of
the Laplace and Helmholtz kernels, and the Helmholtz kernel's
low-frequency constant tau and series) and spherical Bessel utilities,
including cancellation-safe product forms needed on the sphere at very
small wavenumbers. The sphere evaluates no free-space kernel: its
operators and traces are series in spherical harmonics.

Conventions: the Laplace fundamental solution is (1/2pi) ln|x| and the
outgoing Helmholtz fundamental solution is -(i/4) H0(k|x|), both in 2D.
"""

from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = [
    "EULER_GAMMA",
    "OMEGA_MAX",
    "hankel_first_kind",
    "gamma_helmholtz_series",
    "grad_gamma_laplace",
    "grad_gamma_helmholtz",
    "tau",
    "tau_kc",
    "compute_kc",
]

EULER_GAMMA = 0.5772156649015328606

# largest operating frequency omega the transmission problem accepts
OMEGA_MAX = 0.5

# below this |z| the spherical Bessel products switch to power series
_SPH_SERIES_CUT = 0.5


def grad_gamma_laplace(x):
    """Gradient of the 2D Laplace fundamental solution, shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    r2 = np.sum(x * x, axis=-1)[..., None]
    if np.any(r2 == 0):
        raise ValueError("gradient is singular at x = 0")
    return x / (2.0 * np.pi * r2)


def hankel_first_kind(n, z):
    """Hankel function of the first kind H_n(z), n in {0, 1}, complex z != 0."""
    if n not in (0, 1):
        raise ValueError("order must be 0 or 1")
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("Hankel function is singular at z = 0")
    return special.hankel1(n, z)


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


def grad_gamma_helmholtz(x, k):
    """Gradient of the 2D Helmholtz fundamental solution, shape (..., 2)."""
    if k == 0:
        raise ValueError("k must be nonzero")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    r = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(r == 0):
        raise ValueError("gradient is singular at x = 0")
    rhat = x / r[..., None]
    radial = 0.25j * k * special.hankel1(1, k * r)
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


def _sph_series(n, z):
    """
    Regular series factors A, B of the small-argument representations

        j_n(z) =  z^n / (2n+1)!! * A(z),
        y_n(z) = -(2n-1)!! / z^{n+1} * B(z),

    with A, B -> 1 as z -> 0, at the one argument z (a 0-d complex
    array). Returns (A, B, A', B') of shape n.shape; each degree's series
    stops as it would alone.
    """
    z2 = -0.5 * z * z
    A, B, ca, cb = (np.ones(n.shape, dtype=complex) for _ in range(4))
    dA, dB = np.zeros(n.shape, dtype=complex), np.zeros(n.shape, dtype=complex)
    live = np.ones(n.shape, dtype=bool)
    odd = 2 * n + 1
    # The sums grow in place, so that they stay arrays even when 0-d:
    # numpy's scalar complex arithmetic can differ from its array loops
    # in the last bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, 60):
            ca = ca * z2 / (m * (odd + 2 * m))
            cb = cb * z2 / (m * (2 * m - odd))
            np.add(A, ca, out=A, where=live)
            np.add(B, cb, out=B, where=live)
            # d/dz of a term c_m z^{2m} is 2m c_m z^{2m-1}
            np.add(dA, 2 * m * ca / z, out=dA, where=live)
            np.add(dB, 2 * m * cb / z, out=dB, where=live)
            live &= ~(np.maximum(np.abs(ca), np.abs(cb)) < 1e-20)
            if not live.any():
                break
    return A, B, dA, dB


def _dfact(n):
    """Double factorial (2n+1)!! as float, elementwise over n >= 0."""
    n = np.asarray(n)
    # (2n+1)!! is inf from n = 150 on, which is the intended limit: the
    # series callers divide z^n by it at |z| < 0.5, where z^n / (2n+1)!!
    # lies below the smallest double and rounds to 0 either way
    with np.errstate(over="ignore"):
        return np.cumprod(np.arange(1.0, 2.0 * n.max() + 2.0, 2.0))[n]


class SphTerms(NamedTuple):
    """
    Spherical Bessel data of degrees n at one argument z (a 0-d complex
    array), each part of shape n.shape: the factors (A, B, A', B') of
    _sph_series when series, else the values (j_n, None, j_n', None).
    Only this module reads the parts; other modules hand a SphTerms to
    the sph_*_from forms.
    """

    n: np.ndarray
    z: np.ndarray
    series: bool
    j: np.ndarray
    y: np.ndarray
    dj: np.ndarray
    dy: np.ndarray


def sph_terms(n, z, series=None):
    """
    SphTerms of degrees n at the one argument z: one _sph_series call when
    series, else j_n values. series forces the kind of z; by default it
    is series when |z| < 0.5. An array z raises TypeError.
    """
    z = np.asarray(complex(z))
    n = np.asarray(n)
    if series is None:
        series = abs(complex(z)) < _SPH_SERIES_CUT
    if series:
        return SphTerms(n, z, True, *_sph_series(n, z))
    return SphTerms(n, z, False, special.spherical_jn(n, z), None,
                    special.spherical_jn(n, z, derivative=True), None)


def sph_jh_from(t):
    """(j_n h_n, (j_n h_n)') from SphTerms t."""
    n = t.n
    if not t.series:
        # y_n only here: at complex z it costs about five times j_n
        y, dy = (special.spherical_yn(n, t.z, derivative=d) for d in (False, True))
        h = t.j + 1j * y
        return t.j * h, t.dj * h + t.j * (t.dj + 1j * dy)
    A, B, dA, dB, z = t.j, t.y, t.dj, t.dy, t.z
    c = 1.0 / (2 * n + 1)
    jy = -A * B / ((2 * n + 1) * z)
    jfac = z ** n / _dfact(n)
    # (j y)' from j y = -A B / ((2n+1) z), and (j^2)' = 2 j j'
    jy_d = -c * (dA * B + A * dB) / z + c * A * B / (z * z)
    return (jfac ** 2 * A * A + 1j * jy,
            2.0 * (jfac * A) * (jfac * (n * A / z + dA)) + 1j * jy_d)


def sph_jhp_from(t):
    """j_n h_n'(z) from SphTerms t, by the Wronskian j_n h_n' - j_n' h_n = i / z^2."""
    return 0.5 * (sph_jh_from(t)[1] + 1j / (t.z * t.z))


def sph_j_ratio_from(num, den):
    """
    (j_n(z_num) / j_n(z_den), j_n'(z_num) / j_n(z_den)) from SphTerms num
    and den of the same degrees, in den's kind.

    Only the size ratio is raised to a power: from
    j_n(z) = z^n / (2n+1)!! * A(z) the value ratio is
    (z_num/z_den)^n A_num / A_den, and since j_n'(z) =
    z^{n-1} (n A + z A') / (2n+1)!! the derivative ratio is
    (z_num/z_den)^{n-1} (n A_num + z_num A_num') / (z_den A_den), and
    A_num' / A_den at n = 0; z_num^{n-1} and z_den^n alone underflow at
    high degree. The derivative half is not finite at z_num = 0 when
    n = 0 (A'(0) is formed as a 0/0 limit the series code does not take).
    """
    if num.series != den.series:
        num = sph_terms(num.n, num.z, den.series)
    n = num.n
    if not den.series:
        return num.j / den.j, num.dj / den.j
    z_num, z_den = num.z, complex(den.z)
    value = (z_num / z_den) ** n * num.j / den.j
    ratio_d = (z_num / z_den) ** (n - 1) * (n * num.j + z_num * num.dj)
    return value, np.where(n == 0, num.dj / den.j, ratio_d / (z_den * den.j))


def sph_radial_from(n, z):
    """
    Per degree n, the radial integrals of g_n(x) = j_n(z x) / j_n(z) over
    the unit ball's radius,

        mass = (2n+3) int_0^1 |g_n|^2 x^2 dx,
        grad = int_0^1 (|g_n'|^2 + n(n+1) |g_n/x|^2) x^2 dx.

    With t_m the terms of the series factor A_n(z) of _sph_series,
    g_n(x) = x^n sum_m t_m x^{2m} / A_n(z). Integrated term by term, with
    P_s and Q_s the sums of t_m conj(t_p) and of m p t_m conj(t_p) over
    m + p = s, and |A_n|^2 = sum_s P_s:

        mass = 1 - 2 sum_s s P_s / (2n+2s+3) / sum_s P_s,
        grad = n + 4 sum_s Q_s / (2n+2s+1) / sum_s P_s.

    Both are within 1e-15 + 1.2e-16 kappa of 50-digit values (|z| <= 10),
    kappa = max_n (sum_m |t_m|)^2 / |A_n|^2 the cancellation in A_n. It
    stays below 350 on rays 45 degrees or more off the real axis, and
    grows without bound near it, where j_n has zeros: above 1e3 (from
    |z| = 3 on the real axis) this raises ValueError.
    """
    n, z2 = np.asarray(n), -0.5 * complex(z) ** 2
    # t_m by the recurrence of _sph_series; degree 0's terms shrink slowest
    # and stop below 1e-17 of its t_1, which leads its grad
    M, size = 2, abs(z2) / 10
    while size >= 1e-17:
        M += 1
        size *= abs(z2) / (M * (2 * M + 1))
    m = np.arange(M)
    terms = np.ones((2, n.size, M), dtype=complex)
    terms[0, :, 1:] = z2 / (m[1:] * (2 * n[:, None] + 1 + 2 * m[1:]))
    terms[0] = np.cumprod(terms[0], axis=1)
    terms[1] = m * terms[0]
    terms_conj = terms.conj()
    conv = np.zeros((2, n.size, 2 * M - 1))
    for i in m:
        conv[:, :, i:i + M] += (terms[:, :, i:i + 1] * terms_conj).real
    p_s, q_s = conv
    norm = p_s.sum(axis=1)
    kappa = np.max(np.abs(terms[0]).sum(axis=1) ** 2 / norm)
    if not kappa <= 1e3:
        raise ValueError(f"the sphere's radial integrals at |k R| = {abs(complex(z)):.3g} "
                         f"cancel by {kappa:.3g} > 1e3: k is too near the real axis")
    s = np.arange(2 * M - 1)
    e = 2 * n[:, None] + 2 * s
    return (1.0 - 2.0 * np.sum(s * p_s / (e + 3), axis=1) / norm,
            n + 4.0 * np.sum(q_s / (e + 1), axis=1) / norm)
