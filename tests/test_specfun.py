"""
Fundamental solutions and stable Bessel machinery.

The Hankel and spherical Bessel oracles below were computed once from
the defining ascending series (plus the y_n recurrence) in independent
high-precision code and frozen; the library must reproduce them to
1e-10 without calling that code.
"""

import math

import numpy as np
import pytest
from scipy import special

from plasmonres.specfun import (
    EULER_GAMMA,
    OMEGA_MAX,
    gamma_helmholtz_series,
    grad_gamma_laplace,
    grad_gamma_helmholtz,
    hankel_first_kind,
    tau,
    tau_kc,
    compute_kc,
)
from plasmonres.specfun import sph_j_ratio_from, sph_jh_from, sph_jhp_from, sph_terms
from reference_ops import remainder_kernel_radial

# frozen series oracles: H_0, H_1 at real and complex arguments
H0_AT_1 = 0.7651976865579666 + 0.08825696421567696j
H0_AT_HALF = 0.9384698072408129 - 0.4445187335067066j
H1_AT_HALF = 0.2422684576748739 - 1.471472392670243j
H0_AT_005 = 0.9993750976494686 - 1.97931100081721j
KC_ORACLE = 0.0001767766952966369 - 0.07071067811865475j  # omega=0.1, eps=-2, delta=0.01
TAU_AT_01 = -0.3849188732168857 - 0.25j
J3_CPLX = 2.387232838269362e-06 - 1.30884587226283e-05j    # j_3(0.1 - 0.05i)
H3_CPLX = 92255.99979444446 + 26807.87483054777j           # h_3(0.1 - 0.05i)
J1_AT_HALF = 0.1625370306360666
H1_SPH_AT_HALF = 0.1625370306360666 - 4.469181324769897j
K2_ORACLE = -0.08637657365233768 - 0.03524918184572465j    # omega 0.05, r 1.3
K3_ORACLE = 0.0003978840420128097 - 0.07957614526138668j   # omega 0.01, r 1


def test_hankel_oracle_real_arguments():
    assert abs(hankel_first_kind(0, 1.0) - H0_AT_1) < 1e-10
    assert abs(hankel_first_kind(0, 0.5) - H0_AT_HALF) < 1e-10
    assert abs(hankel_first_kind(1, 0.5) - H1_AT_HALF) < 1e-10
    assert abs(hankel_first_kind(0, 0.05) - H0_AT_005) < 1e-10


def _harmonic(k):
    return sum(1.0 / j for j in range(1, k + 1))


def _series_hankel(n, z):
    """
    Independent ascending-series H_n for small |z|, n in {0, 1}; the
    test-local second route for the library's Hankel values.
    """
    z = complex(z)
    q = 0.25 * z * z
    j0 = sum((-q) ** k / math.factorial(k) ** 2 for k in range(24))
    j1 = 0.5 * z * sum((-q) ** k / (math.factorial(k) * math.factorial(k + 1))
                       for k in range(24))
    lg = np.log(0.5 * z) + EULER_GAMMA
    y0 = (2.0 / np.pi) * (lg * j0 + sum((-1) ** (k + 1) * _harmonic(k) * q ** k
                                        / math.factorial(k) ** 2
                                        for k in range(1, 24)))
    s1 = sum((-q) ** k * (_harmonic(k) + _harmonic(k + 1))
             / (math.factorial(k) * math.factorial(k + 1)) for k in range(24))
    y1 = (2.0 / np.pi) * (lg * j1 - 1.0 / z - 0.25 * z * s1)
    return (j0 + 1j * y0) if n == 0 else (j1 + 1j * y1)


def test_hankel_vs_independent_series():
    for z in [0.5, 0.05, 2.0 * KC_ORACLE, 0.3 - 0.2j]:
        for n in (0, 1):
            oracle = _series_hankel(n, z)
            assert abs(hankel_first_kind(n, z) - oracle) < 1e-10 * abs(oracle)


def test_hankel_wronskian():
    # J_1 H_0 - J_0 H_1 = 2i / (pi z)
    for z in [0.3, 1.7, 0.2 - 0.4j]:
        h0 = hankel_first_kind(0, z)
        h1 = hankel_first_kind(1, z)
        j0 = special.jv(0, z)
        j1 = special.jv(1, z)
        wron = j1 * h0 - j0 * h1
        assert abs(wron - 2.0j / (np.pi * z)) < 1e-12


def test_gradients_match_finite_differences():
    # the differentiated kernels are the closed forms ln r / 2pi and
    # -(i/4) H0(k r); the fourth-quadrant k is a sweep's k_c
    rng = np.random.default_rng(7)
    for k in (0.0, 0.3, compute_kc(0.3, -2.0, 1e-2)):
        x = rng.normal(size=(5, 2))
        x /= np.linalg.norm(x, axis=1, keepdims=True) / 1.3
        if k == 0.0:
            g = grad_gamma_laplace(x)
            f = lambda p: np.log(np.linalg.norm(p, axis=-1)) / (2.0 * np.pi)
        else:
            g = grad_gamma_helmholtz(x, k)
            f = lambda p: -0.25j * special.hankel1(0, k * np.linalg.norm(p, axis=-1))
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (f(x + e) - f(x - e)) / (2.0 * h)
            assert np.allclose(g[:, j], fd, rtol=1e-7, atol=1e-9)
    # the kernels are 2D only: a point in space is refused
    off_plane = np.ones((3, 3))
    for grad in (grad_gamma_laplace, lambda p: grad_gamma_helmholtz(p, 0.3)):
        with pytest.raises(ValueError, match="trailing dimension 2"):
            grad(off_plane)


def test_tau_closed_form_and_oracle():
    val = tau(0.1)
    assert abs(val - TAU_AT_01) < 1e-14
    expected = (np.log(0.1) + EULER_GAMMA - np.log(2.0)) / (2.0 * np.pi) - 0.25j
    assert abs(val - expected) < 1e-15


def test_tau_kc_principal_branch():
    kc = compute_kc(0.1, -2.0, 0.01)
    expected = (np.log(kc) + EULER_GAMMA - np.log(2.0)) / (2.0 * np.pi) - 0.25j
    assert abs(tau_kc(kc) - expected) < 1e-15


def test_compute_kc_fourth_quadrant():
    kc = compute_kc(0.1, -2.0, 0.01)
    assert abs(kc - KC_ORACLE) < 1e-15
    assert kc.real > 0 and kc.imag < 0
    # k_c^2 = omega^2 / (eps + i delta) up to the O(delta^2) truncation
    # of the interior-wavenumber expansion
    for eps, delta, om in [(-2.0, 0.01, 0.1), (-5.0, 1e-3, 0.3), (-1.5, 0.05, 0.2)]:
        k = compute_kc(om, eps, delta)
        assert k.real > 0 and k.imag < 0
        gap = abs(k * k - om * om / (eps + 1j * delta))
        assert gap < 2.0 * (delta / eps) ** 2 * om * om / abs(eps)
    with pytest.raises(ValueError):
        compute_kc(0.3, 2.0, 0.3)


def test_remainder_kernel_oracles():
    assert abs(remainder_kernel_radial(np.array([1.3]), 0.05, 2)[0] - K2_ORACLE) < 1e-12
    assert abs(remainder_kernel_radial(np.array([1.0]), 0.01, 3)[0] - K3_ORACLE) < 1e-12


def _dfact(n):
    out = 1
    for k in range(n, 0, -2):
        out *= k
    return out


def _series_sph(n, z, terms=30):
    """
    Independent small-argument series for (j_n, y_n): the test-local
    second route, j_n = z^n/(2n+1)!! A(z) and y_n = -(2n-1)!!/z^{n+1} B(z).
    """
    z = complex(z)
    q = 0.5 * z * z
    a = b = 1.0 + 0.0j
    ta = tb = 1.0 + 0.0j
    for k in range(1, terms):
        ta *= -q / (k * (2 * k + 2 * n + 1))
        tb *= -q / (k * (2 * k - 2 * n - 1))
        a += ta
        b += tb
    jn = z ** n / _dfact(2 * n + 1) * a
    yn = -_dfact(2 * n - 1) / z ** (n + 1) * b
    return jn, yn


def _sph_j(n, z):
    # j_n(z) from sph_terms: z^n A / (2n+1)!! from the series factor A
    # below the cut at |z| = 0.5, the value itself from it on
    t = sph_terms(n, z)
    return complex(t.z) ** n / _dfact(2 * n + 1) * t.j[()] if t.series else t.j[()]


def test_spherical_bessel_vs_independent_series():
    for n in [0, 1, 3]:
        for z in [0.5, 0.1 - 0.05j, 1.2]:
            j_ref, y_ref = _series_sph(n, z)
            jh_ref = j_ref * (j_ref + 1j * y_ref)
            assert abs(_sph_j(n, z) - j_ref) < 1e-10 * max(abs(j_ref), 1e-30)
            assert abs(_jh(n, z)[0] - jh_ref) < 1e-10 * abs(jh_ref)


def test_spherical_bessel_frozen_oracles():
    z = 0.1 - 0.05j
    j3, jh3 = _sph_j(3, z), _jh(3, z)[0]
    assert abs(j3 - J3_CPLX) < 1e-10 * abs(J3_CPLX)
    assert abs(jh3 - J3_CPLX * H3_CPLX) < 1e-10 * abs(J3_CPLX * H3_CPLX)
    j1, jh1 = _sph_j(1, 0.5), _jh(1, 0.5)[0]
    assert abs(j1 - J1_AT_HALF) < 1e-12
    assert abs(jh1 - J1_AT_HALF * H1_SPH_AT_HALF) < 1e-10 * abs(J1_AT_HALF * H1_SPH_AT_HALF)


def _jh(n, z):
    return sph_jh_from(sph_terms(n, z))


def _ratio(n, z_num, z_den):
    return sph_j_ratio_from(sph_terms(n, z_num), sph_terms(n, z_den))


def test_sph_jh_small_and_moderate():
    # two routes: stable product evaluator vs plain j*h via scipy
    for n in [0, 1, 4]:
        for z in [0.7, 1.3 - 0.2j]:
            jn = special.spherical_jn(n, z)
            yn = special.spherical_yn(n, z)
            direct = jn * (jn + 1j * yn)
            assert abs(_jh(n, z)[0] - direct) < 1e-12 * abs(direct)
    # tiny argument where raw h_n overflows: check against the
    # analytic leading term j_n h_n -> -i z^{-1} / (2n+1) + O(1)
    z = 1e-6
    for n in [1, 3]:
        lead = -1j / ((2 * n + 1) * z)
        val, _ = _jh(n, z)
        assert abs(val - lead) / abs(lead) < 1e-4


def test_sph_jh_deriv_consistency():
    # derivative route vs central differences of the product route
    for n in [0, 2, 5]:
        for z in [0.8, 1.1 - 0.3j]:
            h = 1e-6
            fd = (_jh(n, z + h)[0] - _jh(n, z - h)[0]) / (2.0 * h)
            assert abs(_jh(n, z)[1] - fd) < 1e-7 * max(1.0, abs(fd))


def test_sph_wronskian_identity():
    # j_n(z) h_n'(z) - j_n'(z) h_n(z) = i / z^2, via the product calculus
    for n in [0, 1, 4]:
        for z in [0.9, 0.4 - 0.1j]:
            jn = special.spherical_jn(n, z)
            jnp = special.spherical_jn(n, z, derivative=True)
            hn = special.spherical_jn(n, z) + 1j * special.spherical_yn(n, z)
            hnp = special.spherical_jn(n, z, derivative=True) + \
                1j * special.spherical_yn(n, z, derivative=True)
            assert abs(jn * hnp - jnp * hn - 1j / (z * z)) < 1e-12


def test_sph_j_ratio_small_argument():
    # j_n(az)/j_n(z) -> a^n as z -> 0; both arguments deep under the cut
    val, _ = _ratio(5, 1e-8, 2e-8)
    assert abs(val - 0.5 ** 5) < 1e-12
    # moderate arguments agree with the direct quotient
    for n in [1, 3]:
        direct = special.spherical_jn(n, 0.7) / special.spherical_jn(n, 1.1)
        assert abs(_ratio(n, 0.7, 1.1)[0] - direct) < 1e-12


def test_sph_j_ratio_deriv_two_routes():
    for n in [1, 3]:
        direct = special.spherical_jn(n, 0.6, derivative=True) / \
            special.spherical_jn(n, 1.1)
        assert abs(_ratio(n, 0.6, 1.1)[1] - direct) < 1e-12
    # small-argument stability: j_n'(az)/j_n(z) ~ n a^{n-1} z^{-1} ... use
    # the series limit j_n'(z)/j_n(z) -> n/z
    z = 1e-7
    _, val = _ratio(2, z, z)
    assert abs(val - 2.0 / z) / (2.0 / z) < 1e-6


def test_sph_jh_cross_two_routes():
    # j_n(z1) h_n'(z2), the sphere coupling's volume integrand, as the
    # ratio j_n(z1)/j_n(z2) times sph_jhp_from's j_n h_n'(z2) =
    # ((j_n h_n)' + i/z^2)/2 (the Wronskian), against the raw Bessel values
    for n in [0, 2, 4]:
        for z1, z2 in [(0.6, 0.9), (0.8 - 0.1j, 1.2 - 0.05j)]:
            jn = special.spherical_jn(n, z1)
            hnp = special.spherical_jn(n, z2, derivative=True) + \
                1j * special.spherical_yn(n, z2, derivative=True)
            direct = jn * hnp
            stable = _ratio(n, z1, z2)[0] * sph_jhp_from(sph_terms(n, z2))
            assert abs(stable - direct) < 1e-11 * max(1.0, abs(direct))


def test_omega_cap_constant():
    assert OMEGA_MAX == 0.5


# arguments on both sides of the series/direct switch at |z| = 0.5, along
# the fourth-quadrant direction of an interior wavenumber k_c
_KC_DIRECTION = compute_kc(1.0, -2.0, 0.3) / abs(compute_kc(1.0, -2.0, 0.3))
_CUT_SIDES = (1e-7, 0.3, 0.49, 0.4999999, 0.5, 0.51, 2.0)


def test_sph_bessel_degree_arrays_equal_per_degree_calls():
    # both halves of each pair at the sweep's L = 40 and at L = 100, in the
    # kind of z: the products at z and the ratios at z / 2 over z, against
    # one-degree arrays (numpy's scalar complex arithmetic can differ from
    # its array loops in the last bit)
    for degrees in (np.arange(41), np.arange(101)):
        for size in _CUT_SIDES:
            z = size * _KC_DIRECTION
            series = size < 0.5

            def jh(n, arg):
                return sph_jh_from(sph_terms(n, arg, series))

            def ratio(n, arg):
                return sph_j_ratio_from(sph_terms(n, arg, series), sph_terms(n, z))

            for fn, arg in ((jh, z), (ratio, 0.5 * z)):
                each = [fn(degrees[i:i + 1], arg) for i in range(degrees.size)]
                for half, got in enumerate(fn(degrees, arg)):
                    assert np.array_equal(got, np.concatenate([e[half] for e in each]))


@pytest.mark.parametrize("z", (np.array([0.3]), 0.3 * np.ones(48), np.array([[1.2]])))
def test_sph_terms_refuses_an_array_argument(z):
    # every caller holds one argument (omega z0, omega R or k_c R)
    with pytest.raises(TypeError):
        sph_terms(np.arange(5), z)


def _mp_sph_j(mp, n, z):
    # ascending hypergeometric form j_n(z) = z^n / (2n+1)!! 0F1(; n+3/2; -z^2/4)
    return z ** n / mp.fac2(2 * n + 1) * mp.hyp0f1(n + 1.5, -z * z / 4)


def test_sph_j_ratio_deriv_mpmath_high_degree():
    # j_n'(z_num)/j_n(z_den) with j_n' = (n/z) j_n - j_{n+1}; at |z| ~ 1e-7
    # the separate powers z_num^(n-1), z_den^n underflow from n ~ 44
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(40):
        for size in (1e-7, 0.49, 0.51):
            z_den = size * _KC_DIRECTION
            for n in (40, 60, 100):
                for frac in (0.3, 0.7, 0.95):
                    zn, zd = mp.mpc(frac * z_den), mp.mpc(z_den)
                    jp = n / zn * _mp_sph_j(mp, n, zn) - _mp_sph_j(mp, n + 1, zn)
                    want = complex(jp / _mp_sph_j(mp, n, zd))
                    _, got = _ratio(n, frac * z_den, z_den)
                    assert abs(got - want) <= 1e-12 * abs(want)


def test_sph_jh_square_term_high_degree():
    # Re(j_n h_n) = j_n^2 on the real axis; (2n+1)!! passes 2^63 at n = 17
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (17, 20, 40):
            want = float(_mp_sph_j(mpmath.mp, n, mpmath.mpf(0.4)) ** 2)
            assert abs(_jh(n, 0.4)[0].real - want) <= 1e-12 * want


def test_gamma_helmholtz_series_mpmath_oracle():
    # the separated low-frequency kernel at |k| r = 1e-3 and just below
    # the series cut of the off-boundary potentials, real and complex k
    from plasmonres.layer_ops import _SERIES_KR_MAX

    mpmath = pytest.importorskip("mpmath")
    for k in (0.4, 0.4 * np.exp(-0.3j), compute_kc(0.4, -2.0, 1e-2)):
        for kr in (1e-3, _SERIES_KR_MAX * (1.0 - 1e-6)):
            r = np.array([kr / abs(k)])
            got = gamma_helmholtz_series(np.log(r), r * r, k)[0]
            with mpmath.workdps(40):
                kk = mpmath.mpc(complex(k).real, complex(k).imag)
                want = complex(-0.25j * mpmath.hankel1(0, kk * mpmath.mpf(r[0])))
            assert abs(got - want) <= 1e-14 * abs(want)


def test_gamma_helmholtz_series_few_ulp_at_the_cut():
    # the docstring's accuracy, a few 1e-16 relative against mpmath, at
    # |k| r = 0.5, where the potentials switch to Hankel values; the series
    # must run until its terms fall below 1e-20 to get there
    mpmath = pytest.importorskip("mpmath")
    for k in (0.4, 0.4 * np.exp(-0.3j), compute_kc(0.4, -2.0, 1e-2), 0.7j):
        r = np.array([0.5, 0.3]) / abs(k)
        got = gamma_helmholtz_series(np.log(r), r * r, k)
        with mpmath.workdps(40):
            kk = mpmath.mpc(complex(k).real, complex(k).imag)
            want = [complex(-0.25j * mpmath.hankel1(0, kk * mpmath.mpf(x))) for x in r]
        assert np.all(np.abs(got - want) <= 5e-16 * np.abs(want))


def test_expm1_over_z_mpmath_at_the_series_cut():
    # series below |z| = 0.25, exp(z) - 1 divided above, 1 at z = 0
    mpmath = pytest.importorskip("mpmath")
    from reference_ops import _expm1_over_z

    assert _expm1_over_z(0.0) == 1.0
    for direction in (1.0, -1.0, 1j, -1j, np.exp(0.7j), np.exp(-2.5j)):
        for size in (1e-8, 0.1, 0.2499999, 0.25, 0.2500001, 0.3, 1.0):
            z = complex(size * direction)
            with mpmath.workdps(40):
                zz = mpmath.mpc(z.real, z.imag)
                want = complex(mpmath.expm1(zz) / zz)
            assert abs(_expm1_over_z(z) - want) <= 1e-13 * abs(want)
