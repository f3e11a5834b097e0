"""
Transmission solves: plasmon contrast maps, spectral closed forms,
dense-solve agreement, gradient-energy identities, and the resonant
coupling coefficients.
"""

import dataclasses

import numpy as np
import pytest

from plasmonres.geometry import make_curve, quadrature_nodes
from plasmonres.layer_ops import (
    assemble_S,
    assemble_Kstar,
    assemble_S_omega,
    assemble_Kstar_omega,
    eval_potential,
    InteriorKernels,
)
from plasmonres.np_spectrum import (
    build_gram,
    np_eigendecomposition,
    sphere_spectrum,
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
    solve_spectral_2d,
    solve_spectral_3d,
    gradient_energy,
    helmholtz_operators,
    interior_gradient_energy,
    coupling_an,
)
from plasmonres import transmission as transmission_module
from plasmonres.specfun import compute_kc, tau, tau_kc
from plasmonres.sweep import scale_for_delta


def _ellipse_spectrum(n=192):
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), n)
    gram, _, _ = build_gram(assemble_S(nodes), nodes)
    return nodes, np_eigendecomposition(assemble_Kstar(nodes), gram)


def _circle_spectrum(radius, n=128):
    nodes = quadrature_nodes(make_curve("circle", radius=radius), n)
    gram, _, _ = build_gram(assemble_S(nodes), nodes)
    return nodes, np_eigendecomposition(assemble_Kstar(nodes), gram)


def _energy_ops(nodes, kc):
    return (assemble_S_omega(nodes, kc), assemble_Kstar_omega(nodes, kc),
            InteriorKernels(nodes, kc))


def _sphere_energy_ops(spectrum, kc):
    geometry = (spectrum.degrees.max(), spectrum.radius)
    return (*helmholtz_operators(geometry, kc), InteriorKernels(geometry, kc))


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
    sph = sphere_spectrum(8, 1.0)
    delta = 1e-3
    ghat = np.zeros(sph.n)
    ghat[1] = 1.0
    sol = solve_spectral_3d(np.zeros(sph.n), ghat, -2.0, delta, sph)
    phat = coeffs_hat(sol.phi, sph)
    assert abs(phat[1] - 3j / delta) < 1e-10 / delta
    # off that contrast the response is O(1): eps = -3 gives 1/D = 3
    sol3 = solve_spectral_3d(np.zeros(sph.n), ghat, -3.0, 1e-9, sph)
    assert abs(coeffs_hat(sol3.phi, sph)[1] - 3.0) < 1e-6


def test_spectral_cancellation_and_psi_shift():
    # ghat = (1/2 + lambda) fcheck kills phi exactly; psi keeps -fcheck
    sph = sphere_spectrum(8, 1.0)
    fcheck = np.zeros(sph.n)
    fcheck[1] = 1.0
    ghat = (0.5 + sph.lambdas[1]) * fcheck
    sol = solve_spectral_3d(fcheck, ghat, -2.0, 1e-3, sph)
    assert np.max(np.abs(sol.phi)) < 1e-14
    assert abs(coeffs_hat(sol.psi, sph)[1] + 1.0) < 1e-12


def test_spectral_mean_sector_patched_circle():
    # on the unit circle the geometric constant-mode scale vanishes and
    # phi_hat(0) collapses to fcheck(0)/tau(k_c)
    nodes, spec = _circle_spectrum(1.0)
    om, delta = 0.05, 0.02
    kc = compute_kc(om, -2.0, delta)
    fcheck = np.zeros(nodes.n)
    fcheck[0] = 1.0
    sol = solve_spectral_2d(fcheck, np.zeros(nodes.n), -2.0, delta, om, spec)
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
    sol = solve_spectral_2d(fcheck, ghat, -2.0, delta, om, spec)
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
        energies.append(gradient_energy(sol.phi, pr.kc, _energy_ops(nodes, pr.kc)))
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
    ss = solve_spectral_2d(coeffs_check(f, spec), coeffs_hat(g, spec),
                           pr.eps_eff, pr.delta_eff, pr.omega, spec)
    ops = _energy_ops(nodes, pr.kc)
    e_d = np.sqrt(gradient_energy(sd.phi, pr.kc, ops))
    e_s = np.sqrt(gradient_energy(ss.phi, pr.kc, ops))
    assert abs(e_d - e_s) / e_d < 10.0 * s * s * abs(np.log(s)) / delta


def test_direct_vs_spectral_3d():
    sph = sphere_spectrum(12, 1.0)
    delta = 1e-3
    s = 0.01 * delta
    pr = TransmissionProblem(dim=3, geometry=(12, 1.0), s=s, delta=delta,
                             eps_c=-2.0, omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
                             z=np.array([0.0, 0.0, 2.0]))
    sd = solve_direct(pr)
    assert sd.residual < 1e-10
    f, g = dipole_traces(pr)
    ss = solve_spectral_3d(coeffs_check(f, sph), coeffs_hat(g, sph),
                           pr.eps_eff, pr.delta_eff, sph)
    ops = _sphere_energy_ops(sph, pr.kc)
    e_d = np.sqrt(gradient_energy(sd.phi, pr.kc, ops))
    e_s = np.sqrt(gradient_energy(ss.phi, pr.kc, ops))
    assert abs(e_d - e_s) / e_d < 10.0 * s / delta


def test_quasistatic_mode_energy():
    # || grad S[phi_n] ||^2 = 1/2 - lambda_n for a unit H* mode; at
    # k = 0.005 the Helmholtz correction sits at O(k^2 ln k)
    nodes, spec = _ellipse_spectrum()
    k = 0.005
    ops = _energy_ops(nodes, k)
    for slot in (1, 2):
        e = gradient_energy(spec.densities[:, slot], k, ops)
        assert abs(e - (0.5 - spec.lambdas[slot])) < 1e-3


def test_energy_interior_crosscheck():
    nodes, spec = _ellipse_spectrum()
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    sol = solve_direct(pr)
    ops = _energy_ops(nodes, pr.kc)
    e_green = gradient_energy(sol.phi, pr.kc, ops)
    e_interior = interior_gradient_energy(sol.phi, pr.kc, ops)
    assert abs(e_green - e_interior) < 0.02 * abs(e_interior)


def test_sphere_slot_solve_matches_dense_solve():
    # per-slot 2x2 solves against LU on the dense 2(L+1)^2 system, at the
    # resonant contrast eps = -2 and at eps = -0.1, where both rows pivot
    axis = np.array([0.0, 0.0, 1.0])
    for L in (8, 12):
        for eps_c, s, delta in ((-2.0, 1e-5, 1e-3), (-2.0, 0.05, 0.05),
                                (-0.1, 0.05, 0.05)):
            pr = TransmissionProblem(dim=3, geometry=(L, 1.0), s=s, delta=delta,
                                     eps_c=eps_c, omega0=1.0, a=axis, z=2.0 * axis)
            x_dense = np.linalg.solve(*assemble_system(pr))
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
    sph = sphere_spectrum(10, 1.0)
    pr = TransmissionProblem(dim=3, geometry=(10, 1.0), s=0.05, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
                             z=np.array([0.0, 0.0, 2.0]))
    sol = solve_direct(pr)
    e = gradient_energy(sol.phi, pr.kc, _sphere_energy_ops(sph, pr.kc))
    assert np.isfinite(e) and e > 0.0


def test_energy_takes_one_operator_form_per_dimension():
    # both dimensions take (S, K*, InteriorKernels); any other form, the
    # bare pair, the bare spectrum and the sphere's former (spectrum, S,
    # K*) included, raises TypeError, and a holder of another geometry or
    # wavenumber than the operators raises ValueError
    nodes, _ = _ellipse_spectrum(128)
    k = 0.01
    phi = np.cos(nodes.t)
    ops = _energy_ops(nodes, k)
    assert gradient_energy(phi, k, ops) > 0.0
    sph = sphere_spectrum(8, 1.0)
    sph_ops = _sphere_energy_ops(sph, k)
    coef = np.zeros(sph.n)
    coef[2] = 1.0
    assert gradient_energy(coef, k, sph_ops) > 0.0
    for bad in (ops[:2], sph, sph_ops[:2], (sph, *sph_ops[:2]), (*ops[:2], sph),
                ops + (None,)):
        with pytest.raises(TypeError):
            gradient_energy(phi if bad is not sph else coef, k, bad)
    other_nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 128)
    for density, pair, geometry, wavenumber in (
            (phi, ops[:2], other_nodes, k), (phi, ops[:2], nodes, 2.0 * k),
            (phi, ops[:2], (8, 1.0), k), (coef, sph_ops[:2], (8, 2.0), k),
            (coef, sph_ops[:2], (9, 1.0), k), (coef, sph_ops[:2], (8, 1.0), 2.0 * k),
            (coef, sph_ops[:2], nodes, k)):
        with pytest.raises(ValueError, match="do not match"):
            gradient_energy(density, k, (*pair, InteriorKernels(geometry, wavenumber)))


def test_energy_zero_density():
    nodes, spec = _ellipse_spectrum(128)
    k = 0.01
    assert gradient_energy(np.zeros(nodes.n), k, _energy_ops(nodes, k)) == 0.0


def test_constant_mode_energy_scales_like_omega_log():
    # pure mean-sector data produces energy bounded by
    # C |omega ln omega|^2 |phi_hat(0)|^2 with C well under 0.1
    nodes, spec = _circle_spectrum(2.0)
    for om in (0.1, 0.01):
        fcheck = np.zeros(nodes.n)
        fcheck[0] = 1.0
        sol = solve_spectral_2d(fcheck, np.zeros(nodes.n), -2.0, 0.05, om, spec)
        kc = compute_kc(om, -2.0, 0.05)
        e = gradient_energy(sol.phi, kc, _energy_ops(nodes, kc))
        phi0 = abs(coeffs_hat(sol.phi, spec)[0])
        assert abs(e) <= 0.1 * (om * abs(np.log(om))) ** 2 * phi0 ** 2


def test_coupling_two_routes_2d():
    # the quasi-static coupling must match a centred difference of the
    # evaluated single-layer potential along the dipole direction
    nodes, spec = _ellipse_spectrum()
    z = np.array([3.0, 0.5])
    a = np.array([0.6, 0.8])
    h = 1e-5
    for slot in (1, 2):
        _, an0 = coupling_an(z, a, slot, spec, 0.05)
        phi = spec.densities[:, slot]
        up = eval_potential(nodes, phi, 0.0, (z + h * a)[None, :])[0]
        dn = eval_potential(nodes, phi, 0.0, (z - h * a)[None, :])[0]
        assert abs(an0 - (up - dn) / (2.0 * h)) < 1e-8 * abs(an0)


def test_coupling_sphere_distance_law():
    # a_n0 of a degree-n mode decays like z^-(n+2): doubling the
    # distance divides it by exactly 2^(n+2)
    sph = sphere_spectrum(12, 1.0)
    axis = np.array([0.0, 0.0, 1.0])
    for slot, deg in ((2, 1), (6, 2)):
        _, near = coupling_an(2.0 * axis, axis, slot, sph, 0.05)
        _, far = coupling_an(4.0 * axis, axis, slot, sph, 0.05)
        assert abs(near / far - 2.0 ** (deg + 2)) < 1e-10


def test_coupling_sphere_trace_at_one_degree_equals_full_trace():
    # coupling_an evaluates the dipole trace at the pole slot's degree
    # only; that value is bit-identical to the slot of the full trace
    axis = np.array([0.0, 0.0, 1.0])
    for om in (1e-7, 0.05, 0.4):
        for z0 in (1.2, 3.0):
            pr = TransmissionProblem(dim=3, geometry=(40, 1.0), s=om, delta=1e-3,
                                     eps_c=-2.0, omega0=1.0, a=axis, z=z0 * axis)
            f, _ = dipole_traces(pr)
            for deg in (1, 2, 17, 40):
                factors = transmission_module._dipole_factors_3d(deg, om, z0)
                one = transmission_module._dipole_trace_3d(deg, 1.0, om, z0, *factors)
                assert one == f[deg * deg + deg]


def test_coupling_parity_null():
    # an even mode paired with an odd incident pattern: the x-axis
    # dipole pointing in y sees the cosine-sector slot at machine zero
    nodes, spec = _ellipse_spectrum()
    an, an0 = coupling_an(np.array([3.0, 0.0]), np.array([0.0, 1.0]), 2,
                          spec, 0.05)
    assert abs(an0) < 1e-12
    assert abs(an) < 1e-6


def test_coupling_frequency_order():
    # a_n(omega) - a_n(0) shrinks at least quadratically in omega up to
    # the 2D logarithmic factor; 3D is clean quadratic
    sph = sphere_spectrum(12, 1.0)
    axis = np.array([0.0, 0.0, 1.0])
    gaps3 = [abs(np.diff(coupling_an(2.0 * axis, axis, 2, sph, om))[0])
             for om in (0.1, 0.05, 0.025)]
    order3 = np.log(gaps3[0] / gaps3[1]) / np.log(2.0)
    assert order3 > 1.9
    _, spec = _ellipse_spectrum()
    gaps2 = [abs(np.diff(coupling_an(np.array([3.0, 0.0]),
                                     np.array([1.0, 0.0]), 1, spec, om))[0])
             for om in (0.1, 0.05, 0.025)]
    order2 = np.log(gaps2[0] / gaps2[1]) / np.log(2.0)
    # the ln omega factor drags the observed 2D rate below 2
    assert order2 > 1.3


def test_coupling_argument_guards():
    _, spec = _ellipse_spectrum(128)
    with pytest.raises(ValueError):
        coupling_an(np.array([3.0, 0.0]), np.array([1.0, 0.0]), 0, spec, 0.05)
    with pytest.raises(ValueError):
        coupling_an(np.array([3.0, 0.0]), np.array([1.0, 0.0]), 1, spec, 0.9)


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
        TransmissionProblem(**{**ok, "eps_c": 1.0})  # no contrast
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok, "s": -0.1})
    ok3 = dict(dim=3, geometry=(8, 1.0), s=0.01, delta=0.01, eps_c=-2.0,
               omega0=1.0, a=np.array([0.0, 0.0, 1.0]),
               z=np.array([0.0, 0.0, 2.0]))
    TransmissionProblem(**ok3)
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok3, "z": np.array([0.5, 0.0, 2.0])})  # off axis
    with pytest.raises(ValueError):
        TransmissionProblem(**{**ok3, "z": np.array([0.0, 0.0, 1.01])})  # too close
    # dipole moment is normalised on construction
    pr = TransmissionProblem(**{**ok, "a": np.array([3.0, 4.0])})
    assert abs(np.linalg.norm(pr.a) - 1.0) < 1e-15


def test_solution_pair_rejects_non_finite():
    with pytest.raises(ValueError):
        SolutionPair(phi=np.array([1.0, np.nan]), psi=np.zeros(2),
                     solver="direct", residual=0.0)


def test_assemble_system_wavenumber_guard():
    nodes, _ = _circle_spectrum(1.0, 64)
    pr = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                             eps_c=-2.0, omega0=1.0, a=np.array([1.0, 0.0]),
                             z=np.array([3.0, 0.0]))
    wrong = assemble_S_omega(nodes, 0.9 * pr.omega)
    good_kc_s = assemble_S_omega(nodes, pr.kc)
    good_kc_k = assemble_Kstar_omega(nodes, pr.kc)
    good_om_k = assemble_Kstar_omega(nodes, pr.omega)
    with pytest.raises(ValueError):
        assemble_system(pr, operators=(good_kc_s, good_kc_k, wrong, good_om_k))


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
