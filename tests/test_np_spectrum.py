"""
Symmetrized eigendecomposition of the adjoint double layer: closed-form
spectra on circles, ellipses, and the sphere, the constant-mode
normalization split, and the coefficient transforms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plasmonres import np_spectrum
from plasmonres.geometry import Sphere, make_curve, quadrature_nodes
from plasmonres.layer_ops import assemble_S, assemble_Kstar, sphere_degree_index, sphere_operators
from plasmonres.np_spectrum import (
    sphere_spectrum,
    spectrum_of,
    coeffs_hat,
    coeffs_check,
)

# geometric constant-mode scale of the radius-2 circle, (R ln R)^(1/2)
# squared form: c0 = 2 ln 2
C0_RADIUS2 = 1.3862943611198906
# harmonic-normalization constant of the same circle, sqrt(ln 2 / 2 pi)
C0H_RADIUS2 = 0.33214123513398014
# 2:1 ellipse constant-mode scale, (P / 2 pi) ln((a + b) / 2) shape
C0_ELLIPSE = 0.6252127723586231


def _spectrum_2d(kind, n, **params):
    nodes = quadrature_nodes(make_curve(kind, **params), n)
    return nodes, spectrum_of(nodes)


def test_ellipse_eigenvalues_closed_form():
    # the 2:1 ellipse has simple pairs -+ (1/2)(1/3)^n; the negative
    # member of each pair sorts first
    _, spec = _spectrum_2d("ellipse", 256, a=2.0, b=1.0)
    lam = spec.lambdas
    assert abs(lam[0] - 0.5) < 1e-12
    for n in range(1, 5):
        expected = 0.5 * 3.0 ** (-n)
        assert abs(lam[2 * n - 1] + expected) < 1e-8
        assert abs(lam[2 * n] - expected) < 1e-8


def test_ellipse_eigenvalues_resolution_drift():
    _, s128 = _spectrum_2d("ellipse", 128, a=2.0, b=1.0)
    _, s256 = _spectrum_2d("ellipse", 256, a=2.0, b=1.0)
    assert np.max(np.abs(s128.lambdas[:17] - s256.lambdas[:17])) < 1e-8


def test_disk_spectrum_degenerate():
    # every non-constant mode of a disk sits at 0
    _, spec = _spectrum_2d("circle", 96, radius=1.0)
    assert abs(spec.lambdas[0] - 0.5) < 1e-12
    assert np.max(np.abs(spec.lambdas[1:])) < 1e-10


# random ellipses for the property tests: minor axis b, aspect a/b; few
# derandomized examples at N=64, so the tests stay fast and deterministic
_PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
_MINOR = st.floats(min_value=0.3, max_value=2.0)
_ASPECT = st.floats(min_value=1.0, max_value=3.0)


def _assert_contained(nodes, spec):
    assert abs(spec.lambdas[0] - 0.5) < 1e-10
    assert np.all(spec.lambdas[1:] < 0.5 - 1e-6)
    assert np.all(spec.lambdas > -0.5 + 1e-6)
    # the constant-mode density keeps a positive mean
    assert nodes.weights @ spec.densities[:, 0] > 0.1


@_PROPERTY
@given(b=_MINOR, aspect=_ASPECT)
def test_spectrum_containment_and_constant_mode(b, aspect):
    # lambda_0 = 1/2 and every other eigenvalue lies in (-1/2, 1/2)
    _assert_contained(*_spectrum_2d("ellipse", 64, a=aspect * b, b=b))


def test_spectrum_containment_on_the_kite():
    _assert_contained(*_spectrum_2d("kite", 192))


def test_constant_mode_scale_split():
    # unit circle: the geometric scale ln R vanishes, so the constant
    # slot is patched and carries a unit surrogate
    _, spec1 = _spectrum_2d("circle", 128, radius=1.0)
    assert abs(spec1.c0) < 1e-12
    assert spec1.c0_h == 0.0
    assert abs(spec1.m0 - 1.0) < 1e-12
    assert abs(spec1.ctilde0 - 1.0) < 1e-12
    # radius 2: both scales finite and tied by |c0_h m0| = 1
    _, spec2 = _spectrum_2d("circle", 128, radius=2.0)
    assert spec2.c0_h != 0.0
    assert abs(spec2.c0 - C0_RADIUS2) < 1e-8
    assert abs(spec2.c0_h - C0H_RADIUS2) < 1e-10
    assert abs(abs(spec2.c0_h * spec2.m0) - 1.0) < 1e-10
    _, spec_e = _spectrum_2d("ellipse", 192, a=2.0, b=1.0)
    assert spec_e.c0_h != 0.0
    assert abs(spec_e.c0 - C0_ELLIPSE) < 1e-8


@pytest.mark.parametrize("degree, radius", [(4, 1.0), (8, 0.3), (12, 2.5), (40, 25.0)])
def test_sphere_constant_mode_is_minus_radius(degree, radius):
    # S[1] = -R on a radius-R sphere, never patched
    spec = spectrum_of(Sphere(degree, radius))
    assert spec.c0 == -radius
    assert spec.c0_h != 0.0


def test_basis_orthonormal_and_eigen_residual():
    nodes, spec = _spectrum_2d("ellipse", 128, a=2.0, b=1.0)
    Phi, G = spec.densities, spec.gram
    assert np.linalg.norm(Phi.T @ G @ Phi - np.eye(nodes.n)) < 1e-10
    k_mat = assemble_Kstar(nodes).matrix
    resid = k_mat @ Phi[:, 1:] - Phi[:, 1:] * spec.lambdas[1:][None, :]
    assert np.linalg.norm(resid) < 1e-8


def test_stilde_trace_columns():
    nodes, spec = _spectrum_2d("ellipse", 128, a=2.0, b=1.0)
    s_mat = assemble_S(nodes).matrix
    st = spec.stilde_traces
    assert np.allclose(st[:, 0], spec.ctilde0 * np.ones(nodes.n), atol=1e-12)
    for n in (1, 2, 5):
        assert np.linalg.norm(st[:, n] - s_mat @ spec.densities[:, n]) < 1e-12


@_PROPERTY
@given(b=_MINOR, aspect=_ASPECT, dilation=st.floats(min_value=0.1, max_value=10.0))
def test_scale_covariance_of_eigenvalues(b, aspect, dilation):
    # the spectrum is invariant under dilation of the boundary
    _, small = _spectrum_2d("ellipse", 64, a=aspect * b, b=b)
    _, large = _spectrum_2d("ellipse", 64, a=aspect * b * dilation, b=b * dilation)
    assert np.max(np.abs(np.sort(small.lambdas) - np.sort(large.lambdas))) < 1e-9


@_PROPERTY
@given(b=_MINOR, aspect=_ASPECT)
def test_kstar_is_self_adjoint_in_the_gram(b, aspect):
    # K* is self-adjoint in the H* inner product, whose discrete Gram is
    # G, so G K* is symmetric: <x, K* y>_G = <K* x, y>_G for all densities
    nodes, spec = _spectrum_2d("ellipse", 64, a=aspect * b, b=b)
    gk = spec.gram @ assemble_Kstar(nodes).matrix
    assert np.linalg.norm(gk - gk.T) <= 1e-12 * np.linalg.norm(gk)


def test_coeffs_hat_parseval_roundtrip():
    nodes, spec = _spectrum_2d("ellipse", 128, a=2.0, b=1.0)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(nodes.n)
    phi = spec.densities @ coef
    back = coeffs_hat(phi, spec)
    assert np.linalg.norm(back - coef) < 1e-9 * np.linalg.norm(coef)
    # Parseval in the harmonic pairing
    energy_direct = coef @ coef
    energy_hat = back @ back
    assert abs(energy_hat - energy_direct) < 1e-9 * energy_direct


def test_coeffs_check_expansion_and_guard():
    nodes, spec = _spectrum_2d("ellipse", 128, a=2.0, b=1.0)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal(24)
    f = spec.stilde_traces[:, :24] @ coef
    got = coeffs_check(f, spec)
    assert np.linalg.norm(got[:24] - coef) < 1e-8 * np.linalg.norm(coef)
    assert np.linalg.norm(got[24:]) < 1e-8 * np.linalg.norm(coef)
    # the reconstruction guard: an inconsistent trace table must refuse
    import dataclasses
    broken = dataclasses.replace(spec, stilde_traces=2.0 * spec.stilde_traces)
    with pytest.raises(RuntimeError):
        coeffs_check(f, broken)
    with pytest.raises(ValueError):
        coeffs_check(f[:-1], spec)


def test_eigendecomposition_symmetry_guard(monkeypatch):
    # a K* that is not self-adjoint in the Gram (the kite's, at the same
    # node count, against the ellipse's Gram) trips the symmetry check
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 96)
    kite_kstar = assemble_Kstar(quadrature_nodes(make_curve("kite"), 96))
    monkeypatch.setattr(np_spectrum, "assemble_Kstar", lambda _: kite_kstar)
    with pytest.raises(RuntimeError, match="G K\\* asymmetry"):
        spectrum_of(nodes)


def test_sphere_spectrum_closed_form():
    spec = sphere_spectrum(Sphere(10, 1.0))
    deg = sphere_degree_index(10)
    assert abs(spec.lambdas[0] - 0.5) < 1e-14
    expected = 1.0 / (2.0 * (2.0 * deg[1:] + 1.0))
    assert np.max(np.abs(spec.lambdas[1:] - expected)) < 1e-14
    # degeneracy 2n + 1 per degree
    assert list(deg[:9]) == [0, 1, 1, 1, 2, 2, 2, 2, 2]
    assert spec.dim == 3
    # radius leaves the eigenvalues alone
    spec2 = sphere_spectrum(Sphere(10, 2.5))
    assert np.max(np.abs(spec2.lambdas - spec.lambdas)) < 1e-14


def test_sphere_spectrum_matches_operator_diagonal():
    spec = sphere_spectrum(Sphere(8, 1.0))
    _, k0 = sphere_operators(Sphere(8, 1.0))
    assert np.max(np.abs(spec.lambdas[1:] - k0.matrix[1:])) < 1e-14


def test_sphere_minimum_degree_guard():
    with pytest.raises(ValueError):
        sphere_spectrum(Sphere(3, 1.0))


# a negative radius, a degree below MIN_SPHERE_DEGREE, a fractional degree
_BAD_SPHERE_PAIRS = [(8, -1.0), (2, 1.0), (8.5, 1.0)]


@pytest.mark.parametrize("pair", _BAD_SPHERE_PAIRS)
def test_sphere_spectrum_checks_a_plain_pair(pair):
    # a plain (L, R) is checked as a Sphere; a valid one gives its spectrum
    assert np.array_equal(sphere_spectrum((8, 1.0)).lambdas,
                          sphere_spectrum(Sphere(8, 1.0)).lambdas)
    with pytest.raises(ValueError, match="sphere (degree|radius)"):
        sphere_spectrum(pair)


@pytest.mark.parametrize("pair", _BAD_SPHERE_PAIRS)
def test_spectrum_of_checks_a_plain_pair(pair):
    assert spectrum_of((8, 1.0)).geometry == Sphere(8, 1.0)
    with pytest.raises(ValueError, match="sphere (degree|radius)"):
        spectrum_of(pair)
