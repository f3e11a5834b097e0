"""
Transmission solves: plasmon contrast maps, spectral closed forms,
dense-solve agreement, gradient-energy identities, and the resonant
coupling coefficients.
"""

import dataclasses
import math

import copy
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plasmonres.geometry import MIN_SPHERE_DEGREE, Sphere, make_curve, quadrature_nodes
from plasmonres.layer_ops import (
    sphere_degree_index,
    sphere_operators,
    eval_potential,
    helmholtz_operators,
)
from plasmonres.np_spectrum import (
    sphere_spectrum,
    spectrum_of,
    coeffs_hat,
    coeffs_check,
)
from plasmonres.transmission import (
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
from plasmonres import layer_ops, transmission as transmission_module
from plasmonres.specfun import (
    OMEGA_MAX, compute_kc, sph_j_ratio_from, sph_jh_from, sph_radial_from, sph_terms, tau, tau_kc)
from plasmonres.sweep import SweepConfig, scale_for_delta, solve_point
import reference_ops


def _ellipse_spectrum(n=192):
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), n)
    return nodes, spectrum_of(nodes)


def _circle_spectrum(radius, n=128):
    nodes = quadrature_nodes(make_curve("circle", radius=radius), n)
    return nodes, spectrum_of(nodes)


def test_plasmon_contrast_map():
    assert abs(plasmon_lambda(-2.0) - 1.0 / 6.0) < 1e-15
    assert abs(plasmon_lambda(-3.0) - 1.0 / 4.0) < 1e-15
    assert abs(plasmon_lambda(-5.0) - 1.0 / 3.0) < 1e-15
    assert abs(plasmon_lambda(0.0) + 0.5) < 1e-15
    assert abs(plasmon_epsilon(1.0 / 6.0) + 2.0) < 1e-15
    for lam in (1.0 / 6.0, -0.2, 0.49):
        assert abs(plasmon_lambda(plasmon_epsilon(lam)) - lam) < 1e-14
    with pytest.raises(ValueError):
        plasmon_lambda(1.0)
    with pytest.raises(ValueError):
        plasmon_epsilon(0.5)


def test_spectral_mode_amplification_at_resonance():
    # at eps = -2 the lambda = 1/6 denominator collapses to -i delta/3,
    # so a unit Neumann datum excites the mode with amplitude 3i/delta
    sph = sphere_spectrum(Sphere(8, 1.0))
    delta = 1e-3
    ghat = np.zeros(sph.n)
    ghat[1] = 1.0
    sol = solve_spectral(np.zeros(sph.n), ghat, -2.0, delta, 0.01, sph)
    phat = coeffs_hat(sol.phi, sph)
    assert abs(phat[1] - 3j / delta) < 1e-10 / delta
    # off that contrast the response is O(1): eps = -3 gives 1/D = 3
    sol3 = solve_spectral(np.zeros(sph.n), ghat, -3.0, 1e-9, 0.01, sph)
    assert abs(coeffs_hat(sol3.phi, sph)[1] - 3.0) < 1e-6


def test_spectral_cancellation_and_psi_shift():
    # ghat = (1/2 + lambda) fcheck kills phi exactly; psi keeps -fcheck
    sph = sphere_spectrum(Sphere(8, 1.0))
    fcheck = np.zeros(sph.n)
    fcheck[1] = 1.0
    ghat = (0.5 + sph.lambdas[1]) * fcheck
    sol = solve_spectral(fcheck, ghat, -2.0, 1e-3, 0.01, sph)
    assert np.max(np.abs(sol.phi)) < 1e-14
    assert abs(coeffs_hat(sol.psi, sph)[1] + 1.0) < 1e-12


def test_spectral_guard_names_the_vanishing_slots():
    # a lossless resonant contrast names the slots whose denominator
    # vanishes: slot 3 on the ellipse at lambda_3, the degree-1 triple on
    # the sphere
    _, spec = _ellipse_spectrum(64)
    sph = sphere_spectrum(Sphere(8, 1.0))
    for spectrum, slot, named in ((spec, 3, "[3]"), (sph, 1, "[1, 2, 3]")):
        zeros = np.zeros(spectrum.n)
        eps = plasmon_epsilon(spectrum.lambdas[slot])
        with pytest.raises(RuntimeError) as err:
            solve_spectral(zeros, zeros, eps, 1e-300, 0.01, spectrum)
        assert str(err.value).endswith(f"modes {named}")


def test_spectral_mean_sector_patched_circle():
    # on the unit circle the geometric constant-mode scale vanishes and
    # phi_hat(0) collapses to fcheck(0)/tau(k_c)
    nodes, spec = _circle_spectrum(1.0)
    om, delta = 0.05, 0.02
    kc = compute_kc(om, -2.0, delta)
    fcheck = np.zeros(nodes.n)
    fcheck[0] = 1.0
    sol = solve_spectral(fcheck, np.zeros(nodes.n), -2.0, delta, om, spec)
    phi0 = coeffs_hat(sol.phi, spec)[0]
    assert abs(phi0 - 1.0 / tau_kc(kc)) < 1e-12 * abs(1.0 / tau_kc(kc))


def test_spectral_mean_sector_radius_two():
    # unpatched circle: the mean sector mixes the harmonic scale c0_h,
    # the mass m0, and both logarithmic constants
    nodes, spec = _circle_spectrum(2.0)
    om, delta = 0.05, 0.02
    kc = compute_kc(om, -2.0, delta)
    fcheck = np.zeros(nodes.n)
    ghat = np.zeros(nodes.n)
    fcheck[0], ghat[0] = 0.7, -0.3
    sol = solve_spectral(fcheck, ghat, -2.0, delta, om, spec)
    phi0 = coeffs_hat(sol.phi, spec)[0]
    expected = (spec.ctilde0 * 0.7 - (-0.3) * (spec.c0_h + tau(om) * spec.m0)) \
        / (spec.c0_h + tau_kc(kc) * spec.m0)
    assert abs(phi0 - expected) < 1e-12 * abs(expected)
    assert abs(coeffs_hat(sol.psi, spec)[0] - 0.3) < 1e-12


def test_direct_solve_residual_and_rotation_invariance():
    nodes, _ = _circle_spectrum(1.0)
    energies = []
    for a, z in (((1.0, 0.0), (3.0, 0.0)), ((0.0, 1.0), (0.0, 3.0))):
        pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                                 eps_c=-2.0, omega0=1.0, a=np.array(a),
                                 z=np.array(z))
        sol = solve_direct(pr)
        assert sol.residual < 1e-10
        energies.append(gradient_energy(sol.phi, helmholtz_operators(nodes, pr.kc)))
    assert abs(energies[0] - energies[1]) < 1e-12 * abs(energies[0])


def test_direct_vs_spectral_2d():
    # the closed form drops O(s^2 |ln s| / delta) coupling corrections;
    # near resonance the energies must agree within ten times that
    nodes, spec = _ellipse_spectrum()
    delta = 1e-3
    s = scale_for_delta(delta, 0.01, 2)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=s, delta=delta,
                             eps_c=-2.0, omega0=1.0, a=np.array([0.0, 1.0]),
                             z=np.array([3.0, 0.0]))
    sd = solve_direct(pr)
    f, g = dipole_traces(pr)
    ss = solve_spectral(coeffs_check(f, spec), coeffs_hat(g, spec),
                        pr.eps_eff, pr.delta_eff, pr.omega, spec)
    ops = helmholtz_operators(nodes, pr.kc)
    e_d = np.sqrt(gradient_energy(sd.phi, ops))
    e_s = np.sqrt(gradient_energy(ss.phi, ops))
    assert abs(e_d - e_s) / e_d < 10.0 * s * s * abs(np.log(s)) / delta


def test_direct_vs_spectral_3d():
    sph = sphere_spectrum(Sphere(12, 1.0))
    delta = 1e-3
    s = 0.01 * delta
    pr = TransmissionProblem(dim=3, geometry=(12, 1.0), s=s, delta=delta,
                             eps_c=-2.0, omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
                             z=np.array([0.0, 0.0, 2.0]))
    sd = solve_direct(pr)
    assert sd.residual < 1e-10
    f, g = dipole_traces(pr)
    ss = solve_spectral(coeffs_check(f, sph), coeffs_hat(g, sph),
                        pr.eps_eff, pr.delta_eff, pr.omega, sph)
    ops = helmholtz_operators(sph.geometry, pr.kc)
    e_d = np.sqrt(gradient_energy(sd.phi, ops))
    e_s = np.sqrt(gradient_energy(ss.phi, ops))
    assert abs(e_d - e_s) / e_d < 10.0 * s / delta


def test_quasistatic_mode_energy():
    # || grad S[phi_n] ||^2 = 1/2 - lambda_n for a unit H* mode; at
    # k = 0.005 the Helmholtz correction sits at O(k^2 ln k)
    nodes, spec = _ellipse_spectrum()
    k = 0.005
    ops = helmholtz_operators(nodes, k)
    for slot in (1, 2):
        e = gradient_energy(spec.densities[:, slot], ops)
        assert abs(e - (0.5 - spec.lambdas[slot])) < 1e-3


def test_energy_interior_crosscheck():
    nodes, spec = _ellipse_spectrum()
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    sol = solve_direct(pr)
    ops = helmholtz_operators(nodes, pr.kc)
    e_green = gradient_energy(sol.phi, ops)
    e_interior = interior_gradient_energy(sol.phi, ops)
    assert abs(e_green - e_interior) < 0.02 * abs(e_interior)
    # the interior quadrature is 2D only; a sphere's operators once raised
    # IndexError and None AttributeError
    sph_ops = helmholtz_operators(Sphere(8, 1.0), pr.kc)
    for bad in (sph_ops, None, (ops.s, ops.kstar)):
        with pytest.raises(TypeError):
            interior_gradient_energy(sol.phi, bad)


def test_sphere_slot_solve_matches_dense_solve():
    # per-slot 2x2 solves against LU on the dense 2(L+1)^2 system, at the
    # resonant contrast eps = -2 and at eps = -0.1, where both rows pivot
    axis = np.array([0.0, 0.0, 1.0])
    for L in (8, 12):
        for eps_c, s, delta in ((-2.0, 1e-5, 1e-3), (-2.0, 0.05, 0.05),
                                (-0.1, 0.05, 0.05)):
            pr = TransmissionProblem(dim=3, geometry=(L, 1.0), s=s, delta=delta,
                                     eps_c=eps_c, omega0=1.0, a=axis, z=2.0 * axis)
            x_dense = np.linalg.solve(*reference_ops.dense_sphere_system(pr))
            sol = solve_direct(pr)
            x = np.concatenate([sol.phi, sol.psi])
            assert np.linalg.norm(x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
            assert sol.residual <= 1e-10


def test_slot_solver_pivots_like_lu():
    # a tiny or zero leading entry in either row must not hurt the solve
    rng = np.random.default_rng(7)
    a11, a12, a21, a22, f, g = (rng.standard_normal(64) + 1j * rng.standard_normal(64)
                                for _ in range(6))
    a11[::2] *= 1e-14
    a21[1::4] = 0.0
    x, y = transmission_module._solve_slots(a11, a12, a21, a22, f, g)
    for i in range(64):
        ref = np.linalg.solve([[a11[i], a12[i]], [a21[i], a22[i]]], [f[i], g[i]])
        assert np.allclose([x[i], y[i]], ref, rtol=1e-12, atol=0.0)
    # a singular slot comes back non-finite, which solve_direct rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = transmission_module._solve_slots(a11 * 0.0, a12, a21 * 0.0, a22, f, g)
    assert not np.all(np.isfinite(x))


def test_energy_check_rejects_nan():
    with pytest.raises(RuntimeError):
        transmission_module._check_energy_agreement(1.0, float("nan"))


def test_energy_sphere_route_self_checks():
    sph = sphere_spectrum(Sphere(10, 1.0))
    pr = TransmissionProblem(dim=3, geometry=(10, 1.0), s=0.05, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
                             z=np.array([0.0, 0.0, 2.0]))
    sol = solve_direct(pr)
    e = gradient_energy(sol.phi, helmholtz_operators(sph.geometry, pr.kc))
    assert np.isfinite(e) and e > 0.0


def test_energy_takes_one_operator_form_per_dimension():
    # both dimensions take the HelmholtzOperators of helmholtz_operators,
    # tagged once with the geometry and k (stored as complex); anything
    # else, a tuple, the bare pair and the bare spectrum included, raises
    # TypeError
    nodes, _ = _ellipse_spectrum(128)
    k = 0.01
    phi = np.cos(nodes.t)
    ops = helmholtz_operators(nodes, k)
    assert ops.geometry is nodes and type(ops.k) is complex and ops.k == k
    pair = (ops.s, ops.kstar)
    assert gradient_energy(phi, ops) > 0.0
    sph = sphere_spectrum(Sphere(8, 1.0))
    sph_ops = helmholtz_operators(sph.geometry, k)
    sph_pair = (sph_ops.s, sph_ops.kstar)
    coef = np.zeros(sph.n)
    coef[2] = 1.0
    assert gradient_energy(coef, sph_ops) > 0.0
    for bad in (pair, sph, sph_pair, (sph, *sph_pair), (*pair, sph), (*pair, ops),
                (ops,)):
        with pytest.raises(TypeError):
            gradient_energy(phi if bad is not sph else coef, bad)


def test_energy_zero_density():
    nodes, spec = _ellipse_spectrum(128)
    k = 0.01
    assert gradient_energy(np.zeros(nodes.n), helmholtz_operators(nodes, k)) == 0.0


def test_constant_mode_energy_scales_like_omega_log():
    # pure mean-sector data produces energy bounded by
    # C |omega ln omega|^2 |phi_hat(0)|^2 with C well under 0.1
    nodes, spec = _circle_spectrum(2.0)
    for om in (0.1, 0.01):
        fcheck = np.zeros(nodes.n)
        fcheck[0] = 1.0
        sol = solve_spectral(fcheck, np.zeros(nodes.n), -2.0, 0.05, om, spec)
        kc = compute_kc(om, -2.0, 0.05)
        e = gradient_energy(sol.phi, helmholtz_operators(nodes, kc))
        phi0 = abs(coeffs_hat(sol.phi, spec)[0])
        assert abs(e) <= 0.1 * (om * abs(np.log(om))) ** 2 * phi0 ** 2


def test_coupling_two_routes_2d():
    # the quasi-static coupling must match a centred difference of the
    # evaluated single-layer potential along the dipole direction
    nodes, spec = _ellipse_spectrum()
    z = np.array([3.0, 0.5])
    a = np.array([0.6, 0.8])
    h = 1e-5
    _, an0s = coupling_an(z, a, (1, 2), spec, 0.05)
    for slot, an0 in zip((1, 2), an0s):
        phi = spec.densities[:, slot]
        up = eval_potential(nodes, phi, 0.0, (z + h * a)[None, :])[0]
        dn = eval_potential(nodes, phi, 0.0, (z - h * a)[None, :])[0]
        assert abs(an0 - (up - dn) / (2.0 * h)) < 1e-8 * abs(an0)


def test_coupling_sphere_distance_law():
    # a_n0 of a degree-n mode decays like z^-(n+2): doubling the
    # distance divides it by exactly 2^(n+2)
    sph = sphere_spectrum(Sphere(12, 1.0))
    axis = np.array([0.0, 0.0, 1.0])
    _, nears = coupling_an(2.0 * axis, axis, (2, 6), sph, 0.05)
    _, fars = coupling_an(4.0 * axis, axis, (2, 6), sph, 0.05)
    for deg, near, far in zip((1, 2), nears, fars):
        assert abs(near / far - 2.0 ** (deg + 2)) < 1e-10


def _jhp(n, zz):
    # j_n h_n'(zz) of an array of degrees, by the Wronskian
    # j_n h_n' - j_n' h_n = i / z^2
    return 0.5 * (sph_jh_from(sph_terms(n, zz))[1] + 1j / (zz * zz))


def _ratio(n, z_num, z_den):
    return sph_j_ratio_from(sph_terms(n, z_num), sph_terms(n, z_den))


def test_coupling_sphere_trace_at_one_degree_equals_full_trace():
    # coupling_an reads F_z at the pole slot's degree from the full trace;
    # that value is bit-identical to one evaluated at that degree only
    axis = np.array([0.0, 0.0, 1.0])
    for om in (1e-7, 0.05, 0.4):
        for z0 in (1.2, 3.0):
            pr = TransmissionProblem(dim=3, geometry=(40, 1.0), s=om, delta=1e-3,
                                     eps_c=-2.0, omega0=1.0, a=axis, z=z0 * axis)
            f, _ = dipole_traces(pr)
            zz = om * z0
            for deg in (1, 2, 17, 40):
                (jhp,) = _jhp([deg], zz)
                cn = np.sqrt((2 * deg + 1) / (4.0 * math.pi))
                one = -1j * om * om * cn * 1.0 * _ratio(deg, om * 1.0, zz)[0] * jhp
                assert one == f[deg * deg + deg]


@pytest.mark.parametrize("om, z0, radius, eps_c", [
    (1e-4, 2.0, 1.0, -2.0), (0.3, 3.0, 1.0, -2.0), (0.4, 3.0, 2.0, -0.2)],
    ids=("below-cut", "omega-z0-above-cut", "above-cut"))
def test_sphere_bessel_shares_the_public_helpers_values(om, z0, radius, eps_c):
    # A sphere point sums its spherical-Bessel series at omega R once
    # (omega_terms) and hands it to its traces and its operators at
    # omega. Every consumer gets bit for bit what the standalone helpers
    # give, with |omega z0|, |omega R| and |k_c R| below the 0.5 series
    # cut, with omega z0 alone above it, and with all above.
    L = 40
    axis = np.array([0.0, 0.0, 1.0])
    pr = TransmissionProblem(dim=3, geometry=(L, radius), s=om, delta=1e-3,
                             eps_c=eps_c, omega0=1.0, a=axis, z=z0 * axis)
    terms = transmission_module.omega_terms(pr)
    n, deg = np.arange(L + 1), sphere_degree_index(L)
    zz = om * z0
    jhp = _jhp(n, zz)
    cn = np.sqrt((2 * n + 1) / (4.0 * math.pi))
    ratio, ratio_d = _ratio(n, om * radius, zz)
    f, g = dipole_traces(pr, terms)
    assert np.array_equal(f[n * n + n], -1j * om * om * cn * radius * ratio * jhp)
    assert np.array_equal(g[n * n + n], -1j * om ** 3 * cn * radius * ratio_d * jhp)
    for mine, alone in zip((f, g), dipole_traces(pr)):
        assert np.array_equal(mine, alone)
    for k, shared in ((complex(pr.kc), ()), (complex(om), (terms,))):
        jh, jh_d = sph_jh_from(sph_terms(n, k * radius))
        sk, kk = sphere_operators(Sphere(L, radius), k, *shared)
        assert np.array_equal(sk, -1j * k * radius * radius * jh[deg])
        assert np.array_equal(kk, -0.5j * k * k * radius * radius * jh_d[deg])
    # the energies' radial integrals: the double series of the k_c R terms
    # on both sides of the cut
    i_mass, i_grad = helmholtz_operators(Sphere(L, radius), pr.kc).tables()
    mass, grad = sph_radial_from(n, pr.kc * radius)
    assert np.array_equal(i_mass, (radius ** 3 / (2 * n + 3) * mass)[deg])
    assert np.array_equal(i_grad, (radius * grad)[deg])
    # the coupling at single pole degrees is the spectral numerator
    # beta (gram g + (1/2 + lambda) f) of one-degree helper traces
    sph = spectrum_of(Sphere(L, radius))
    for d in (1, 2, 17, 40):
        slot = [d * d + d]
        cn_d = np.sqrt((2 * d + 1) / (4.0 * math.pi))
        jhp_d = _jhp([d], zz)
        ratio_dv, ratio_dd = _ratio(d, om * radius, zz)
        fz = -1j * om * om * cn_d * radius * ratio_dv * jhp_d
        gz = -1j * om ** 3 * cn_d * radius * ratio_dd * jhp_d
        assert np.array_equal(fz, f[slot]) and np.array_equal(gz, g[slot])
        want = sph.densities[slot] * (sph.gram[slot] * gz + (0.5 + sph.lambdas[slot]) * fz)
        for shared in ((f, g),), ():
            got, _ = coupling_an(pr.z, axis, slot, sph, om, *shared)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("radius, z0", [(1.0, 2.0), (1.0, 1.05), (2.0, 3.0)])
def test_coupling_radial_integral_mpmath(radius, z0):
    # the whole coupling a_n at the pole degrees 1..40 against 50-digit
    # mpmath by the volume route: the surface term plus omega^2 times
    # the radial integral int_0^R j_n(omega r) (r/R)^n r^2 dr in closed
    # form, which shares nothing with the boundary identity the package
    # uses. Within 8e-15 while |omega z0| < 0.5 (measured at most
    # 6.0e-15, from the n-th power of the rounded R/z0 in the traces),
    # 4e-14 above it (measured 2.7e-14, from scipy's Bessel values); an
    # omega above OMEGA_MAX has no coupling
    pytest.importorskip("mpmath")
    L = 40
    axis = np.array([0.0, 0.0, 1.0])
    sph = sphere_spectrum(Sphere(L, radius))
    degrees = range(1, L + 1)
    for size in (1e-8, 1e-4, 1e-2, 0.2, 0.49, 0.51, 0.8, 1.0):
        om = size / z0
        if om > OMEGA_MAX:
            continue
        tol = 8e-15 if size < 0.5 else 4e-14
        got, _ = coupling_an(z0 * axis, axis, [d * d + d for d in degrees], sph, om)
        for d, an in zip(degrees, got):
            want = reference_ops.coupling_an_mp(d, om, radius, z0)
            assert abs(an - want) <= tol * abs(want)


def _residue_gap(problem, spectrum, slots):
    """
    max relative gap, over slots, between the coupling a_n and the
    residue D_n phi_hat(n) of the spectral solve, mode n's numerator
    ghat(n) - (1/2 + lambda_n) fcheck(n)
    """
    f, g = dipole_traces(problem)
    om, eps_c, delta = problem.omega, problem.eps_eff, problem.delta_eff
    sol = solve_spectral(coeffs_check(f, spectrum), coeffs_hat(g, spectrum),
                         eps_c, delta, om, spectrum)
    lam = spectrum.lambdas[slots]
    d_n = (eps_c + 1j * delta - 1.0) * lam - 0.5 * (eps_c + 1j * delta + 1.0)
    residue = coeffs_hat(sol.phi, spectrum)[slots] * d_n
    a_n, _ = coupling_an(problem.z, problem.a, slots, spectrum, om)
    return float(np.max(np.abs(residue - a_n) / np.abs(a_n)))


@pytest.mark.parametrize("L", [8, 12, 40])
def test_resonance_residue_is_the_coupling(L):
    # the paper's claim in one identity: at mode n the spectral solve is
    # a_n / D_n, with D_n = O(delta) on resonance, so D_n phi_hat(n)
    # returns the coupling at every pole slot, on and off resonance and
    # below and above the 0.5 series cut (measured at most 7.6e-16)
    axis = np.array([0.0, 0.0, 1.0])
    spectrum = sphere_spectrum(Sphere(L, 1.0))
    slots = [d * d + d for d in range(1, L + 1)]
    for eps_c in (-0.3, -1.5, -2.0, -5.0):
        for delta in (1e-2, 1e-4, 1e-6):
            for om in (1e-7, 1e-3, 0.1, 0.5):
                pr = TransmissionProblem(dim=3, geometry=(L, 1.0), s=om, delta=delta,
                                         eps_c=eps_c, omega0=1.0, a=axis, z=2.0 * axis)
                assert _residue_gap(pr, spectrum, slots) <= 1e-13


@pytest.mark.xfail(strict=True, reason=(
    "Finding 1: the 2D coupling's volume term omega^2 int_D F_z S[phi_n] is a "
    "first-order interior quadrature; on the ellipse at N=256 the residue "
    "misses a_n by 2.7e-7, 8.4e-7 and 4.5e-7 at slots 2, 4 and 6"))
def test_resonance_residue_is_the_coupling_2d():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 256)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=1e-2, delta=1e-2, eps_c=-2.0,
                             omega0=1.0, a=(1.0, 0.0), z=(3.0, 0.0))
    assert _residue_gap(pr, spectrum_of(nodes), [2, 4, 6]) <= 1e-10


@pytest.mark.parametrize("om, radius, eps_c, delta", [
    (0.4, 2.0, -0.2, 1e-3), (0.3, 2.0, -0.0625, 1e-3), (0.5, 2.0, -0.031, 1e-3),
    (0.5, 3.4, -0.04, 0.04)], ids=("kcR-1.8", "kcR-2.4", "kcR-5.7", "kcR-9.5-63deg"))
def test_sphere_rows_above_the_series_cut_match_mpmath(monkeypatch, om, radius, eps_c, delta):
    # no workload or pin reaches |k_c R| >= 0.5 on the sweep path: here
    # both rows of such points match the same point with 50-digit radial
    # integrals in place of the series, within 1e-15 relative (measured at
    # most 1.3e-16), on rays 89 and 63 degrees below the real axis
    pytest.importorskip("mpmath")
    L = 16
    axis = np.array([0.0, 0.0, 1.0])
    pr = TransmissionProblem(dim=3, geometry=(L, radius), s=om, delta=delta, eps_c=eps_c,
                             omega0=1.0, a=axis, z=1.5 * radius * axis)
    assert 0.5 <= abs(pr.kc) * radius <= 10.0
    spectrum = sphere_spectrum(pr.geometry)
    rows, errors = solve_point(pr, spectrum, ("direct", "spectral"))
    assert errors == [None, None]

    def mp_table(sphere, k):
        pairs = np.array([reference_ops.sphere_radial_integrals_mp(n, k, sphere.R)
                          for n in range(sphere.L + 1)])
        return pairs[sphere_degree_index(sphere.L)].T

    monkeypatch.setattr(layer_ops, "_sphere_radial_table", mp_table)
    reference, errors = solve_point(pr, spectrum, ("direct", "spectral"))
    assert errors == [None, None]
    for row, ref in zip(rows, reference):
        assert abs(row.energy_norm - ref.energy_norm) <= 1e-15 * ref.energy_norm


def test_energy_cross_check_is_live_on_the_sweep_path(monkeypatch):
    # every sphere row checks the Green-identity energy against the
    # term-by-term i_grad: a 1e-13 relative error in i_grad passes the
    # 1e-11 check, a 1e-10 or a 6% error fails the row with its message
    table = layer_ops._sphere_radial_table
    pr = TransmissionProblem(dim=3, geometry=(12, 1.0), s=scale_for_delta(1e-3, 0.01, 3),
                             delta=1e-3, eps_c=-2.0, omega0=1.0, a=(0.0, 0.0, 1.0),
                             z=(0.0, 0.0, 2.0))
    for scale, fails in ((1 + 1e-13, False), (1 + 1e-10, True), (1.06, True)):
        def scaled(*args, scale=scale):
            i_mass, i_grad = table(*args)
            return i_mass, scale * i_grad
        monkeypatch.setattr(layer_ops, "_sphere_radial_table", scaled)
        rows, errors = solve_point(pr, sphere_spectrum(pr.geometry), ("direct", "spectral"))
        for row, error in zip(rows, errors):
            if fails:
                assert isinstance(error, RuntimeError)
                assert "energy cross-check failed" in str(error)
            else:
                assert error is None and np.isfinite(row.energy_norm)


@pytest.mark.xfail(strict=True, reason=(
    "the 2D volume terms (the |u|^2 term of the energy and the coupling's "
    "omega^2 int_D F_z S[phi_n]) use a first-order interior volume quadrature: "
    "energy_norm and a_n_abs move by 1.4e-8 and 2.5e-8 from N=256 to N=512"))
def test_ellipse_point_converged_at_256_nodes():
    # one resonant ellipse point, direct row, at N=256 and at N=512
    rows = []
    for n in (256, 512):
        nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), n)
        pr = TransmissionProblem(dim=2, geometry=nodes, s=scale_for_delta(1e-2, 0.01, 2),
                                 delta=1e-2, eps_c=-2.0, omega0=1.0, a=(1.0, 0.0),
                                 z=(3.0, 0.0))
        (row,), (error,) = solve_point(pr, spectrum_of(nodes), ("direct",))
        assert error is None
        rows.append(row)
    for name in ("energy_norm", "a_n_abs"):
        coarse, fine = (getattr(row, name) for row in rows)
        assert abs(coarse - fine) <= 1e-10 * abs(fine)


def test_coupling_parity_null():
    # an even mode paired with an odd incident pattern: the x-axis
    # dipole pointing in y sees the cosine-sector slot at machine zero
    nodes, spec = _ellipse_spectrum()
    (an,), (an0,) = coupling_an(np.array([3.0, 0.0]), np.array([0.0, 1.0]), [2],
                                spec, 0.05)
    assert abs(an0) < 1e-12
    assert abs(an) < 1e-6


def test_coupling_frequency_order():
    # a_n(omega) - a_n(0) shrinks at least quadratically in omega up to
    # the 2D logarithmic factor; 3D is clean quadratic
    sph = sphere_spectrum(Sphere(12, 1.0))
    axis = np.array([0.0, 0.0, 1.0])
    gaps3 = [abs(np.diff(coupling_an(2.0 * axis, axis, [2], sph, om), axis=0)[0, 0])
             for om in (0.1, 0.05, 0.025)]
    order3 = np.log(gaps3[0] / gaps3[1]) / np.log(2.0)
    assert order3 > 1.9
    _, spec = _ellipse_spectrum()
    gaps2 = [abs(np.diff(coupling_an(np.array([3.0, 0.0]),
                                     np.array([1.0, 0.0]), [1], spec, om), axis=0)[0, 0])
             for om in (0.1, 0.05, 0.025)]
    order2 = np.log(gaps2[0] / gaps2[1]) / np.log(2.0)
    # the ln omega factor drags the observed 2D rate below 2
    assert order2 > 1.3


# curves symmetric about the x-axis, each with an axial dipole on the axis
_MIRROR_CASES = [
    pytest.param("ellipse", {"a": 2.0, "b": 1.0}, (3.0, 0.0), 0.05, id="ellipse"),
    pytest.param("kite", {}, (2.5, 0.0), 0.43, id="kite"),
]


def _parity_couplings(kind, params, z, omega, n=256):
    """
    (a_n, a_n0) of slots 1..11 split by the mode's parity under the
    mirror t -> -t, i.e. node j -> N - j: (odd a_n, odd a_n0, even a_n).
    """
    nodes = quadrature_nodes(make_curve(kind, **params), n)
    spectrum = spectrum_of(nodes)
    mirror = -np.arange(n) % n
    odd, even = [], []
    for slot in range(1, 12):
        phi = spectrum.densities[:, slot]
        if np.linalg.norm(phi + phi[mirror]) < 1e-8 * np.linalg.norm(phi):
            odd.append(slot)
        else:
            assert np.linalg.norm(phi - phi[mirror]) < 1e-8 * np.linalg.norm(phi)
            even.append(slot)
    dipole = (np.asarray(z), np.array([1.0, 0.0]))
    a_odd, a0_odd = coupling_an(*dipole, odd, spectrum, omega)
    a_even, _ = coupling_an(*dipole, even, spectrum, omega)
    assert len(odd) >= 5 and np.abs(a_even).max() > 0.05
    return a_odd, a0_odd, a_even


@pytest.mark.parametrize("kind, params, z, omega", _MIRROR_CASES)
def test_axial_dipole_leaves_odd_modes_quasi_statically(kind, params, z, omega):
    # the selection rule: the field of an axial dipole on the axis is even,
    # so its pairing with an odd mode vanishes; the surface term a_n0 is
    # a mirror-symmetric trapezoid sum and keeps the rule to rounding
    _, a0_odd, _ = _parity_couplings(kind, params, z, omega)
    assert np.abs(a0_odd).max() <= 1e-14


@pytest.mark.xfail(strict=True, reason=(
    "Finding 1: the coupling's volume term omega^2 int_D F_z S[phi_n] is a "
    "first-order quadrature on an interior grid that is not mirror-symmetric, "
    "so an odd mode's |a_n| reads 3.6e-7 (ellipse) and 6.3e-5 (kite), not 0"))
@pytest.mark.parametrize("kind, params, z, omega", _MIRROR_CASES)
def test_axial_dipole_leaves_odd_modes(kind, params, z, omega):
    a_odd, _, _ = _parity_couplings(kind, params, z, omega)
    assert np.abs(a_odd).max() <= 1e-12


def test_coupling_argument_guards():
    _, spec = _ellipse_spectrum(128)
    with pytest.raises(ValueError):
        coupling_an(np.array([3.0, 0.0]), np.array([1.0, 0.0]), [0], spec, 0.05)
    with pytest.raises(ValueError):
        coupling_an(np.array([3.0, 0.0]), np.array([1.0, 0.0]), [1], spec, 0.9)
    # slots are a sequence, never a bare int
    with pytest.raises(TypeError):
        coupling_an(np.array([3.0, 0.0]), np.array([1.0, 0.0]), 1, spec, 0.05)
    # a dipole inside the inclusion is refused, as the 3D branch does
    with pytest.raises(ValueError, match="inside the inclusion"):
        coupling_an(np.array([0.0, 0.0]), np.array([1.0, 0.0]), [1, 2], spec, 0.05)


def test_problem_validation():
    nodes, _ = _circle_spectrum(1.0, 64)
    ok = dict(dim=2, geometry=nodes, s=0.1, delta=0.05, eps_c=-2.0,
              omega0=1.0, a=np.array([1.0, 0.0]), z=np.array([3.0, 0.0]))
    TransmissionProblem(**ok)
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok, "omega0": 20.0})  # s*omega0 over the cap
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok, "z": np.array([0.2, 0.0])})  # inside
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok, "z": np.array([1.0 + 0.5 * nodes.spacing, 0.0])})
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok, "s": -0.1})
    ok3 = dict(dim=3, geometry=(8, 1.0), s=0.01, delta=0.01, eps_c=-2.0,
               omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
               z=np.array([0.0, 0.0, 2.0]))
    TransmissionProblem(**ok3)
    # no lossy interior wavenumber: refused here, not later in problem.kc
    # outside a row's error path
    for eps_c in (2.0, 1.0, 0.0, 1e-300):
        for base in (ok, ok3):
            with pytest.raises(ValueError, match="^eps_c must be negative"):
                TransmissionProblem(**{**base, "eps_c": eps_c})
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok3, "z": np.array([0.5, 0.0, 2.0])})  # off axis
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok3, "z": np.array([0.0, 0.0, 1.01])})  # too close
    # dipole moment is normalised on construction
    pr = TransmissionProblem(**{**ok, "a": np.array([3.0, 4.0])})
    assert abs(np.linalg.norm(pr.a) - 1.0) < 1e-15


def test_sphere_is_a_checked_pair():
    # a Sphere is the (L, R) tuple, normalised once to (int, float); the
    # problem and the sweep config turn a given pair into one
    sphere = Sphere(np.int64(12), 1)
    assert sphere == (12, 1.0) and (sphere.L, sphere.R) == (12, 1.0)
    assert type(sphere.L) is int and type(sphere.R) is float
    L, R = sphere
    assert (L, R) == (sphere[0], sphere[1])
    assert copy.deepcopy(sphere) == sphere and type(copy.copy(sphere)) is Sphere
    assert sphere._replace(R=2) == (12, 2.0)
    with pytest.raises(ValueError, match="sphere radius"):
        sphere._replace(R=np.nan)
    axis = np.array([0.0, 0.0, 1.0])
    pr = TransmissionProblem(dim=3, geometry=(12, 1.0), s=1e-4, delta=1e-2,
                             eps_c=-2.0, omega0=1.0, a=axis, z=2.0 * axis)
    assert type(pr.geometry) is Sphere and pr.geometry == sphere
    cfg = SweepConfig(dim=3, geometry=(12, 1.0), eps_c=-2.0, omega0=1.0, a=axis,
                      z=2.0 * axis, csv_path="unused.csv")
    assert type(cfg.geometry) is Sphere
    # the dense system is 2D only: the sphere's is solved slot by slot
    with pytest.raises(TypeError):
        assemble_system(pr)


_AXIS3 = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("build, named", [
    (lambda: Sphere(12.5, 1.0), "sphere degree must be an integer"),
    (lambda: Sphere(12.0, 1.0), "sphere degree must be an integer"),
    (lambda: Sphere(True, 1.0), "sphere degree must be an integer"),
    (lambda: Sphere(MIN_SPHERE_DEGREE - 1, 1.0), f"L >= {MIN_SPHERE_DEGREE}"),
    (lambda: Sphere(12, np.nan), "sphere radius"),
    (lambda: Sphere(12, np.inf), "sphere radius"),
    (lambda: Sphere(12, 0.0), "sphere radius"),
    (lambda: TransmissionProblem(dim=3, geometry=(12.5, 1.0), s=1e-4, delta=1e-2,
                                 eps_c=-2.0, omega0=1.0, a=_AXIS3, z=2.0 * _AXIS3),
     "sphere degree must be an integer"),
    (lambda: SweepConfig(dim=3, geometry=(12, np.nan), eps_c=-2.0, omega0=1.0,
                         a=_AXIS3, z=2.0 * _AXIS3, csv_path="unused.csv"),
     "sphere radius"),
    (lambda: make_curve("circle", radius=np.nan), "circle radius"),
    (lambda: make_curve("circle", radius=np.inf), "circle radius"),
    (lambda: make_curve("ellipse", a=np.nan, b=1.0), "a=nan"),
    (lambda: make_curve("ellipse", a=np.inf, b=1.0), "a=inf"),
    (lambda: make_curve("ellipse", a=2.0, b=np.nan), "b=nan"),
    (lambda: make_curve("ellipse", a=2.0), r"missing parameters for ellipse: \['b'\]"),
    (lambda: quadrature_nodes(make_curve("circle"), 64.0), "node count n must be an integer"),
    (lambda: TransmissionProblem(dim=3, geometry=quadrature_nodes(make_curve("circle"), 64),
                                 s=1e-4, delta=1e-2, eps_c=-2.0, omega0=1.0, a=_AXIS3,
                                 z=2.0 * _AXIS3),
     "NodeSet geometry does not fit dim 3"),
    (lambda: TransmissionProblem(dim=2, geometry=Sphere(8, 1.0), s=1e-4, delta=1e-2,
                                 eps_c=-2.0, omega0=1.0, a=(1.0, 0.0), z=(3.0, 0.0)),
     "Sphere geometry does not fit dim 2"),
])
def test_geometry_constructors_refuse_invalid_parameters(build, named):
    # non-finite, fractional and missing parameters fail where the
    # geometry is built, and a geometry of the other dimension where the
    # problem is, with a message that names the parameter, never as NaN
    # rows or a KeyError
    with pytest.raises(ValueError, match=named):
        build()


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf), ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("name", ("eps_c", "eps_m", "a", "z", "s", "delta", "omega0"))
@pytest.mark.parametrize("dim", (2, 3))
def test_problem_refuses_non_finite_parameters(dim, name, bad):
    # a NaN passes every comparison, and an infinite contrast, dipole,
    # scale, loss or frequency only fails inside a solve (delta = inf
    # makes k_c NaN): each is refused where the problem is built, by a
    # message that names the parameter
    if dim == 2:
        geometry = quadrature_nodes(make_curve("circle", radius=1.0), 64)
        a, z = (1.0, 0.0), (3.0, 0.0)
    else:
        geometry, a, z = Sphere(8, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0)
    ok = dict(dim=dim, geometry=geometry, s=1e-3, delta=1e-2, eps_c=-2.0, eps_m=1.0,
              omega0=1.0, a=a, z=z)
    TransmissionProblem(**ok)
    value = (bad,) + ok[name][1:] if name in ("a", "z") else bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TransmissionProblem(**{**ok, name: value})


# s / delta of the property below; the spectral closed form drops
# corrections of relative size s / delta, and the gap must fall with it
_S_OVER_DELTA = (1e-1, 1e-2, 1e-3)


def _direct_spectral_gaps(geometry, slot, a, z):
    """Relative energy_norm gaps of solve_point at delta = 1e-2 and each s/delta."""
    spectrum = spectrum_of(geometry)
    eps_c = plasmon_epsilon(spectrum.lambdas[slot])
    gaps = []
    for ratio in _S_OVER_DELTA:
        pr = TransmissionProblem(dim=len(z), geometry=geometry, s=ratio * 1e-2,
                                 delta=1e-2, eps_c=eps_c, omega0=1.0, a=a, z=z)
        rows, errors = solve_point(pr, spectrum, ("direct", "spectral"))
        assert errors == [None, None]
        direct, spectral = (row.energy_norm for row in rows)
        gaps.append(abs(direct - spectral) / direct)
    return gaps


def _assert_quasi_static(gaps, floor):
    assert all(gap <= ratio for gap, ratio in zip(gaps, _S_OVER_DELTA)), gaps
    assert all(later <= max(earlier, floor) for earlier, later in zip(gaps, gaps[1:])), gaps


@settings(max_examples=12, derandomize=True, deadline=None)
@given(aspect=st.floats(min_value=1.1, max_value=2.0), mode=st.integers(1, 4))
def test_quasi_static_gap_within_s_over_delta_ellipse(aspect, mode):
    # the paper's statement at a resonant contrast eps_c = plasmon_epsilon(
    # lambda_n): direct and spectral energies agree within s/delta, and the
    # gap falls with s/delta (2:1, mode 2: 7.0e-4, 7.0e-6, 7.0e-8) down to
    # the N=64 quadrature's 1e-10. A 3:1 ellipse at N=64 fails its interior
    # quadrature, so the aspect stops at 2.
    nodes = quadrature_nodes(make_curve("ellipse", a=aspect, b=1.0), 64)
    gaps = _direct_spectral_gaps(nodes, mode, [1.0, 0.0], [aspect + 1.0, 0.0])
    _assert_quasi_static(gaps, 1e-10)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(L=st.integers(8, 12), degree=st.integers(1, 4))
def test_quasi_static_gap_within_s_over_delta_sphere(L, degree):
    # the same on the unit sphere at the pole slot of each degree: the gaps
    # read 4.1e-8 down to 2.2e-13 here and reach rounding (~1e-15) only
    # from s/delta = 1e-5 on, so the floor is 1e-14
    gaps = _direct_spectral_gaps(Sphere(L, 1.0), degree * degree + degree, _AXIS3,
                                 2.0 * _AXIS3)
    _assert_quasi_static(gaps, 1e-14)


def test_solution_pair_rejects_non_finite():
    with pytest.raises(ValueError):
        SolutionPair(phi=np.array([1.0, np.nan]), psi=np.zeros(2),
                     solver="direct", residual=0.0)


def test_assemble_system_wavenumber_guard():
    # operators is the pair (at k_c, at omega) of HelmholtzOperators: a
    # pair at another wavenumber raises ValueError, and a bare tuple of
    # arrays or the four operators in a row TypeError
    nodes, _ = _circle_spectrum(1.0, 64)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    at_kc, at_omega = helmholtz_operators(nodes, pr.kc), helmholtz_operators(nodes, pr.omega)
    assert np.array_equal(assemble_system(pr, operators=(at_kc, at_omega))[0],
                          assemble_system(pr)[0])
    wrong = helmholtz_operators(nodes, 0.9 * pr.omega)
    for solve in (assemble_system, solve_direct):
        for operators in ((at_kc, wrong), (at_omega, at_omega)):
            with pytest.raises(ValueError, match="wavenumber"):
                solve(pr, operators=operators)
        for operators in ((at_kc, (at_omega.s, at_omega.kstar)),
                          (at_kc.s, at_kc.kstar, at_omega.s, at_omega.kstar)):
            with pytest.raises(TypeError, match="HelmholtzOperators"):
                solve(pr, operators=operators)


def test_direct_solve_refuses_operators_of_another_geometry():
    # the pair's geometry is checked as well as its k: unchecked, the
    # circle's pairs below solved the ellipse problem to residual 7e-15
    # with a phi 91% off, and the radius-2 sphere's pairs the radius-1
    # problem to residual 4e-16
    ellipse = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 64)
    circle = quadrature_nodes(make_curve("circle", radius=1.0), 64)
    pr = TransmissionProblem(dim=2, geometry=ellipse, s=0.1, delta=0.05, eps_c=-2.0,
                             omega0=1.0, a=[1.0, 0.0], z=[3.0, 0.0])
    sph = TransmissionProblem(dim=3, geometry=Sphere(8, 1.0), s=1e-3, delta=1e-2,
                              eps_c=-2.0, omega0=1.0, a=[0.0, 0.0, 1.0], z=[0.0, 0.0, 3.0])
    for problem, other, solvers in ((pr, circle, (assemble_system, solve_direct)),
                                    (sph, Sphere(8, 2.0), (solve_direct,)),
                                    (sph, circle, (solve_direct,))):
        own = tuple(helmholtz_operators(problem.geometry, k)
                    for k in (problem.kc, problem.omega))
        assert np.array_equal(solve_direct(problem, operators=own).phi,
                              solve_direct(problem).phi)
        foreign = tuple(helmholtz_operators(other, k) for k in (problem.kc, problem.omega))
        for solve in solvers:
            for operators in (foreign, (own[0], foreign[1]), (foreign[0], own[1])):
                with pytest.raises(ValueError, match="another geometry"):
                    solve(problem, operators=operators)


def test_dipole_traces_default_geometry():
    nodes, _ = _circle_spectrum(1.0, 64)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    f, g = dipole_traces(pr)
    assert f.shape == (nodes.n,) and g.shape == (nodes.n,)
    assert np.all(np.isfinite(f.real)) and np.all(np.isfinite(g.real))


def test_kc_fourth_quadrant_through_problem():
    nodes, _ = _circle_spectrum(1.0, 64)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    assert pr.kc.real > 0 and pr.kc.imag < 0
    assert abs(pr.omega - 0.1) < 1e-15
