"""
End-to-end acceptance checks, one test per headline criterion.

Each test prints a single PASS line with the measured figure next to
its tolerance.  Criterion 8 is the one deliberate red: its literal
single-constant additive bracket is not attainable (see the test), so
it is marked strict-xfail and accompanied by the two-sided
comparability version that does hold.
"""

import math
import time

import numpy as np
import pytest

from plasmonres.geometry import Sphere, make_curve, quadrature_nodes
from plasmonres.layer_ops import (
    assemble_S_omega,
    assemble_Kstar_omega,
    InteriorKernels,
    sphere_operators,
    sphere_degree_index,
)
from plasmonres.np_spectrum import (
    sphere_spectrum,
    spectrum_of,
    coeffs_hat,
)
from plasmonres.specfun import hankel_first_kind, sph_terms
from plasmonres.transmission import coupling_an, gradient_energy
from plasmonres.sweep import SweepConfig, run_sweep
from reference_ops import sphere_diagonal_by_quadrature

DELTA_MAX, DELTA_MIN, PPD = 1e-2, 1e-5, 4


@pytest.fixture(scope="module")
def ellipse_nodes():
    return quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 256)


@pytest.fixture(scope="module")
def ellipse_spectrum_timed(ellipse_nodes):
    t0 = time.perf_counter()
    spec = spectrum_of(ellipse_nodes)
    return spec, time.perf_counter() - t0


def _run(cfg):
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_3d_resonant(tmp_path_factory):
    path = tmp_path_factory.mktemp("s3r") / "sweep.csv"
    return _run(SweepConfig(dim=3, geometry=(12, 1.0), eps_c=-2.0, omega0=1.0,
                            a=(0.0, 0.0, 1.0), z=(0.0, 0.0, 2.0),
                            csv_path=str(path), delta_max=DELTA_MAX,
                            delta_min=DELTA_MIN, points_per_decade=PPD,
                            solver="both", workers=4))


@pytest.fixture(scope="module")
def sweep_3d_off(tmp_path_factory):
    path = tmp_path_factory.mktemp("s3o") / "sweep.csv"
    return _run(SweepConfig(dim=3, geometry=(12, 1.0), eps_c=-5.0, omega0=1.0,
                            a=(0.0, 0.0, 1.0), z=(0.0, 0.0, 2.0),
                            csv_path=str(path), delta_max=DELTA_MAX,
                            delta_min=DELTA_MIN, points_per_decade=PPD,
                            solver="both", workers=4))


@pytest.fixture(scope="module")
def sweep_2d_resonant(tmp_path_factory, ellipse_nodes):
    path = tmp_path_factory.mktemp("s2r") / "sweep.csv"
    return _run(SweepConfig(dim=2, geometry=ellipse_nodes, eps_c=-2.0,
                            omega0=1.0, a=(1.0, 0.0), z=(3.0, 0.0),
                            csv_path=str(path), delta_max=DELTA_MAX,
                            delta_min=DELTA_MIN, points_per_decade=PPD,
                            solver="both", workers=4))


@pytest.fixture(scope="module")
def sweep_2d_off(tmp_path_factory, ellipse_nodes):
    path = tmp_path_factory.mktemp("s2o") / "sweep.csv"
    return _run(SweepConfig(dim=2, geometry=ellipse_nodes, eps_c=-3.0,
                            omega0=1.0, a=(1.0, 0.0), z=(3.0, 0.0),
                            csv_path=str(path), delta_max=DELTA_MAX,
                            delta_min=DELTA_MIN, points_per_decade=PPD,
                            solver="both", workers=4))


def test_criterion_01_ellipse_eigenvalues(ellipse_spectrum_timed):
    spec, elapsed = ellipse_spectrum_timed
    errs = []
    for n in range(1, 5):
        expected = 0.5 * 3.0 ** (-n)
        errs.append(abs(spec.lambdas[2 * n - 1] + expected))
        errs.append(abs(spec.lambdas[2 * n] - expected))
    err = max(errs)
    assert err <= 1e-8
    assert elapsed <= 30.0
    nodes512 = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 512)
    spec512 = spectrum_of(nodes512)
    drift = float(np.max(np.abs(spec.lambdas[:9] - spec512.lambdas[:9])))
    assert drift <= 1e-8
    print(f"PASS criterion 01: ellipse first 8 nonzero eigenvalues err "
          f"{err:.2e} <= 1e-8, drift {drift:.2e} <= 1e-8, {elapsed:.1f}s <= 30s")


def test_criterion_02_sphere_spectrum_and_quadrature():
    spec = sphere_spectrum(Sphere(12, 1.0))
    deg = sphere_degree_index(12)
    exact = np.where(deg == 0, 0.5, 1.0 / (2.0 * (2.0 * deg + 1.0)))
    err_exact = float(np.max(np.abs(spec.lambdas - exact)))
    assert err_exact <= 1e-12
    _, k0 = sphere_operators(Sphere(12, 1.0))
    errs = []
    for n, m in ((0, 0), (1, 0), (2, 1)):
        slot = n * n + n + m
        quad = sphere_diagonal_by_quadrature(n, m, 1.0, 0.0, which="Kstar")
        errs.append(abs(quad - k0.matrix[slot]))
    err_quad = max(errs)
    assert err_quad <= 1e-8
    print(f"PASS criterion 02: sphere eigenvalues err {err_exact:.2e}, "
          f"surface-quadrature spot checks err {err_quad:.2e} <= 1e-8")


def test_criterion_03_constant_mode_scale_split():
    nodes1 = quadrature_nodes(make_curve("circle", radius=1.0), 128)
    assert spectrum_of(nodes1).c0_h == 0.0
    nodes2 = quadrature_nodes(make_curve("circle", radius=2.0), 128)
    spec_two = spectrum_of(nodes2)
    assert spec_two.c0_h != 0.0
    err = abs(spec_two.c0 - 2.0 * math.log(2.0))
    assert err <= 1e-8
    print(f"PASS criterion 03: unit circle patched, radius-2 c0 err "
          f"{err:.2e} <= 1e-8")


def test_criterion_04_blowup_rate_3d(sweep_3d_resonant):
    result, elapsed = sweep_3d_resonant
    assert result.verdict == "resonant"
    assert -1.15 <= result.slope <= -0.85
    assert elapsed <= 120.0
    print(f"PASS criterion 04: 3D resonant slope {result.slope:.4f} in "
          f"[-1.15, -0.85], {elapsed:.1f}s <= 120s")


def test_criterion_05_blowup_rate_2d(sweep_2d_resonant):
    result, elapsed = sweep_2d_resonant
    assert result.verdict == "resonant"
    assert -1.15 <= result.slope <= -0.85
    assert elapsed <= 300.0
    print(f"PASS criterion 05: 2D resonant slope {result.slope:.4f} in "
          f"[-1.15, -0.85], {elapsed:.1f}s <= 300s")


def test_criterion_06_off_resonance_bounded(sweep_3d_off, sweep_2d_off):
    ratios = []
    for (result, _), label in ((sweep_3d_off, "sphere eps=-5"),
                               (sweep_2d_off, "ellipse eps=-3")):
        assert result.verdict == "bounded"
        for solver in ("direct", "spectral"):
            e = [r.energy_norm for r in result.rows
                 if r.solver == solver and np.isfinite(r.energy_norm)]
            ratios.append(max(e) / min(e))
    ratio = max(ratios)
    assert ratio < 2.0
    print(f"PASS criterion 06: off-resonance max/min energy {ratio:.4f} < 2")


def test_criterion_07_direct_vs_spectral(sweep_3d_resonant, sweep_3d_off,
                                         sweep_2d_resonant, sweep_2d_off):
    worst = 0.0
    for (result, _), dim in ((sweep_3d_resonant, 3), (sweep_3d_off, 3),
                             (sweep_2d_resonant, 2), (sweep_2d_off, 2)):
        by_delta = {}
        for r in result.rows:
            by_delta.setdefault(r.delta, {})[r.solver] = r
        for delta, pair in by_delta.items():
            rd, rs = pair["direct"], pair["spectral"]
            if not (np.isfinite(rd.energy_norm) and np.isfinite(rs.energy_norm)):
                continue
            gap = abs(rd.energy_norm - rs.energy_norm) / rd.energy_norm
            s = rd.s
            coupling = s / delta if dim == 3 else s * s * abs(np.log(s)) / delta
            assert gap <= 10.0 * coupling
            worst = max(worst, gap / (10.0 * coupling))
    assert worst <= 1.0
    print(f"PASS criterion 07: direct vs spectral within bound at every "
          f"point, worst fraction {worst:.3f} of allowance")


@pytest.fixture(scope="module")
def comparability_data():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 192)
    spec = spectrum_of(nodes)
    rng = np.random.default_rng(2026)
    records = []
    for om in (0.1, 0.01):
        ops = (assemble_S_omega(nodes, om), assemble_Kstar_omega(nodes, om),
               InteriorKernels(nodes, om))
        for _ in range(20):
            coef = np.zeros(nodes.n)
            coef[:12] = rng.standard_normal(12)
            phi = spec.densities @ coef
            energy = gradient_energy(phi, om, ops)
            hat = coeffs_hat(phi, spec)
            grad2 = float(np.sum(np.abs(hat[1:]) ** 2))
            e_mean = (om * abs(np.log(om))) ** 2 * abs(hat[0]) ** 2
            records.append((energy, grad2, e_mean))
    return records


@pytest.mark.xfail(
    strict=True,
    reason="an additive two-sided bracket with one constant fails on the "
           "lower side: E - ||phi'||^2 contains mode terms of order "
           "||phi'||^2 itself; only the one-sided comparability bounds hold",
)
def test_criterion_08_single_constant_energy_bracket(comparability_data):
    # literal form: |E - sum_{n>=1} |phi_hat(n)|^2| <= C |w ln w|^2
    # |phi_hat(0)|^2 with one C <= 50 across 20 random densities
    needed = max(abs(energy - grad2) / max(e_mean, 1e-300)
                 for energy, grad2, e_mean in comparability_data)
    assert needed <= 50.0


def test_criterion_08_companion_two_sided_comparability(comparability_data):
    # the attainable statement: E is comparable to
    # sum_{n>=1} |phi_hat(n)|^2 + |w ln w|^2 |phi_hat(0)|^2 with C = 3.5
    c = 3.5
    ratios = [energy / (grad2 + e_mean)
              for energy, grad2, e_mean in comparability_data]
    assert min(ratios) >= 1.0 / c
    assert max(ratios) <= c
    print(f"PASS criterion 08 (companion): comparability ratios in "
          f"[{min(ratios):.3f}, {max(ratios):.3f}] inside [1/3.5, 3.5]")


def test_criterion_09_mean_mode_stays_bounded(sweep_3d_resonant,
                                              sweep_2d_resonant):
    worst = 1.0
    for result, _ in (sweep_3d_resonant, sweep_2d_resonant):
        for solver in ("direct", "spectral"):
            vals = [r.phi0_hat_abs for r in result.rows
                    if r.solver == solver and np.isfinite(r.phi0_hat_abs)
                    and r.phi0_hat_abs > 0]
            worst = max(worst, max(vals) / min(vals))
    assert worst < 3.0
    print(f"PASS criterion 09: |phi_hat(0)| varies by {worst:.3f} < 3 "
          f"through the resonant sweeps")


def test_criterion_10_coupling_frequency_order():
    sph = sphere_spectrum(Sphere(12, 1.0))
    axis = np.array([0.0, 0.0, 1.0])
    gaps = []
    for om in (0.1, 0.05, 0.025):
        (an,), (an0,) = coupling_an(2.0 * axis, axis, [2], sph, om)
        gaps.append(abs(an - an0))
    orders = [np.log(gaps[i] / gaps[i + 1]) / np.log(2.0) for i in range(2)]
    order = min(orders)
    assert order >= 1.9
    print(f"PASS criterion 10: a_n frequency order {order:.2f} >= 1.9")


def _series_hankel0(z, terms=26):
    # independent ascending series for H_0 = J_0 + i Y_0
    gamma = 0.5772156649015328606
    j0 = sum((-1) ** m * (z / 2.0) ** (2 * m) / math.factorial(m) ** 2
             for m in range(terms))
    acc = 0.0
    harm = 0.0
    for m in range(1, terms):
        harm += 1.0 / m
        acc += (-1) ** (m + 1) * harm * (z / 2.0) ** (2 * m) / math.factorial(m) ** 2
    y0 = (2.0 / math.pi) * ((np.log(z / 2.0) + gamma) * j0 + acc)
    return j0 + 1j * y0


def test_criterion_11_special_function_oracles():
    errs = []
    for z in (0.5, 0.05, 0.3):
        errs.append(abs(hankel_first_kind(0, z) - _series_hankel0(z)))
    for n in (0, 1, 3):
        for z in (0.4, 0.9):
            j_ref = _series_sph_j_direct(n, z)
            # below |z| = 0.5 sph_terms holds the series factor A of
            # j_n = z^n A / (2n+1)!!, from it on the value j_n
            t = sph_terms(n, z)
            j_val = z ** n / math.prod(range(2 * n + 1, 0, -2)) * t.j if t.series else t.j
            errs.append(abs(j_val - j_ref))
    err = max(errs)
    assert err <= 1e-10
    print(f"PASS criterion 11: special-function series oracles err "
          f"{err:.2e} <= 1e-10")


def _series_sph_j_direct(n, z, terms=30):
    # j_n(z) = z^n sum_m (-z^2/2)^m / (m! (2n + 2m + 1)!!)
    total = 0.0
    for m in range(terms):
        dfact = 1.0
        k = 2 * n + 2 * m + 1
        while k > 1:
            dfact *= k
            k -= 2
        total += (-0.5 * z * z) ** m / (math.factorial(m) * dfact)
    return total * z ** n
