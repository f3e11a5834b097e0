"""
Layer potential operators: Fourier diagonalization on circles, adjoint
structure, low-frequency remainders, off-boundary evaluation, jump
relations, and the sphere diagonals.
"""

import numpy as np
import pytest
from scipy import special

from plasmonres import layer_ops
from plasmonres.geometry import Sphere, make_curve, quadrature_nodes, log_weight_matrix
from plasmonres.layer_ops import (
    assemble_S,
    assemble_Kstar,
    assemble_S_omega,
    assemble_Kstar_omega,
    eval_potential,
    eval_gradient,
    helmholtz_operators,
    sphere_operators,
    sphere_degree_index,
)
from plasmonres.specfun import (
    EULER_GAMMA,
    compute_kc,
    gamma_helmholtz_series,
    tau,
)
import reference_ops
from reference_ops import assemble_R_Q, sphere_diagonal_by_quadrature

# Bessel-product eigenvalue of the unit-circle Helmholtz single layer
# on e^{it} at k = 0.5: -(i pi / 2) J_1(0.5) H_1(0.5), frozen
SK_CIRCLE_MODE1 = -0.5599752985327319 - 0.09219632837648107j
# sphere S^k diagonal at n = 1, k = 0.5, R = 1: -i k j_1(k) h_1(k), frozen
SK_SPHERE_N1 = -0.3632037309511307 - 0.01320914316399482j


def _circle(n=128, radius=1.0):
    return quadrature_nodes(make_curve("circle", radius=radius), n)


def test_static_single_layer_circle_fourier():
    # S[cos nt] = -(R/2n) cos nt and S[1] = R ln R on a radius-R circle
    for radius in (1.0, 2.0):
        nodes = _circle(128, radius)
        t = nodes.t
        s_mat = assemble_S(nodes)
        ones = np.ones(nodes.n)
        target = radius * np.log(radius) * ones
        assert np.linalg.norm(s_mat @ ones - target) < 1e-12 * max(1.0, abs(radius * np.log(radius))) * np.sqrt(nodes.n)
        for n in (1, 3, 7):
            for mode in (np.cos(n * t), np.sin(n * t)):
                out = s_mat @ mode
                assert np.linalg.norm(out + radius / (2.0 * n) * mode) < 1e-11


def test_static_adjoint_double_layer_circle():
    nodes = _circle()
    t = nodes.t
    k_mat = assemble_Kstar(nodes)
    ones = np.ones(nodes.n)
    assert np.linalg.norm(k_mat @ ones - 0.5 * ones) < 1e-12 * np.sqrt(nodes.n)
    for n in (1, 4):
        mode = np.cos(n * t)
        assert np.linalg.norm(k_mat @ mode) < 1e-12 * np.sqrt(nodes.n)


def test_helmholtz_single_layer_circle_mode_oracle():
    nodes = _circle()
    sk = assemble_S_omega(nodes, 0.5)
    e1 = np.exp(1j * nodes.t)
    out = sk @ e1
    assert np.linalg.norm(out - SK_CIRCLE_MODE1 * e1) < 1e-8 * np.linalg.norm(e1)


def test_helmholtz_adjoint_circle_mode_two_routes():
    # route 1: Nystrom matrix applied to e^{int}; route 2: the
    # Bessel-product derivative -(i pi k / 4) (J_n H_n)'(k)
    nodes = _circle()
    k = 0.5
    kk = assemble_Kstar_omega(nodes, k)
    for n in (1, 2, 5):
        mode = np.exp(1j * n * nodes.t)
        lam_matrix = (kk @ mode) / mode
        jn = special.jv(n, k)
        hn = special.hankel1(n, k)
        jnp = special.jvp(n, k)
        hnp = special.h1vp(n, k)
        lam_formula = -1j * np.pi * k / 4.0 * (jnp * hn + jn * hnp)
        assert np.max(np.abs(lam_matrix - lam_formula)) < 1e-10


# three decades of |k| on the real axis and along the fourth-quadrant k_c
# of eps_c = -2 at delta = 1e-2 and 0.3
_DISK_K = tuple(size * ray for size in (3e-3, 3e-2, 0.3) for ray in (1.0,) + tuple(
    compute_kc(1.0, -2.0, d) / abs(compute_kc(1.0, -2.0, d)) for d in (1e-2, 0.3)))


@pytest.mark.parametrize("radius", (1.0, 2.0))
@pytest.mark.parametrize("n_nodes", (64, 128))
def test_disk_helmholtz_operators_match_fourier_closed_forms(n_nodes, radius):
    # on a circle of radius R the Nystrom S^k and K^k* are diagonal on
    # cos(n theta), n <= 20, with the eigenvalues -(i pi R / 2) J_n H_n(kR)
    # and -(i pi kR / 4) (J_n H_n)'(kR); measured at most 1.3e-13 relative
    # for S^k and 7.3e-15 absolute for K^k*
    nodes = _circle(n_nodes, radius)
    for k in _DISK_K:
        z = k * radius
        sk = assemble_S_omega(nodes, k)
        kk = assemble_Kstar_omega(nodes, k)
        for n in range(21):
            mode = np.cos(n * nodes.t)
            jn, hn = special.jv(n, z), special.hankel1(n, z)
            lam_s = -0.5j * np.pi * radius * jn * hn
            lam_k = -0.25j * np.pi * z * (special.jvp(n, z) * hn + jn * special.h1vp(n, z))
            assert np.max(np.abs(sk @ mode - lam_s * mode)) <= 2e-13 * abs(lam_s)
            assert np.max(np.abs(kk @ mode - lam_k * mode)) <= 1e-14


def _full_helmholtz_matrices(nodes, k):
    """S^k and K^k*, every Bessel and Hankel value taken on the full r matrix."""
    k = complex(k)
    n = nodes.n
    jac = nodes.jacobians
    dx = nodes.points[:, None, :] - nodes.points[None, :, :]
    r = np.sqrt(np.sum(dx * dx, axis=-1))
    np.fill_diagonal(r, 1.0)
    t = nodes.t
    s2 = 4.0 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
    np.fill_diagonal(s2, 1.0)
    logsin = np.log(s2)
    np.fill_diagonal(logsin, 0.0)
    weights = log_weight_matrix(n)

    m1 = special.jv(0, k * r) * jac / (4.0 * np.pi)
    np.fill_diagonal(m1, jac / (4.0 * np.pi))
    m2 = -0.25j * special.hankel1(0, k * r) * jac - m1 * logsin
    np.fill_diagonal(m2, (-0.25j + (EULER_GAMMA + np.log(k * jac / 2.0))
                          / (2.0 * np.pi)) * jac)
    s_mat = weights * m1 + (2.0 * np.pi / n) * m2

    c = np.einsum("id,ijd->ij", nodes.normals, dx) / r
    m1 = -(k / (4.0 * np.pi)) * special.jv(1, k * r) * c * jac
    np.fill_diagonal(m1, 0.0)
    m2 = 0.25j * k * special.hankel1(1, k * r) * c * jac - m1 * logsin
    np.fill_diagonal(m2, nodes.curvatures * jac / (4.0 * np.pi))
    k_mat = weights * m1 + (2.0 * np.pi / n) * m2
    return s_mat, k_mat


_DISTINCT_CASES = [("ellipse", {"a": 2.0, "b": 1.0}, 96), ("kite", {}, 96),
                   ("circle", {"radius": 1.5}, 128),
                   ("ellipse", {"a": 2.0, "b": 1.0}, 64),
                   ("ellipse", {"a": 2.0, "b": 1.0}, 256)]


@pytest.mark.parametrize("kind, params, n", _DISTINCT_CASES)
def test_distinct_distance_helmholtz_assembly_bit_identical(kind, params, n):
    # the assemblers evaluate Bessel/Hankel values once per distinct
    # node distance; equal distances give equal values, so nothing moves.
    # They also apply their real factors in place, while numpy makes
    # scalar * temporary in place only from 256 KiB (N = 128) on: the
    # node counts on both sides of that cut hold their complex-scalar
    # products to the operand order of the out-of-place expressions
    nodes = quadrature_nodes(make_curve(kind, **params), n)
    for k in (0.3, compute_kc(0.3, -3.0, 1e-2)):
        s_full, k_full = _full_helmholtz_matrices(nodes, k)
        assert np.array_equal(assemble_S_omega(nodes, k), s_full)
        assert np.array_equal(assemble_Kstar_omega(nodes, k), k_full)


class _CountingSpecial:
    """scipy.special, recording the argument size of each jv/hankel1 call."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(special, name)

    def jv(self, order, z):
        self.sizes.append(np.size(z))
        return special.jv(order, z)

    def hankel1(self, order, z):
        self.sizes.append(np.size(z))
        return special.hankel1(order, z)


@pytest.mark.parametrize("kind, params, n", _DISTINCT_CASES)
def test_helmholtz_tables_evaluate_each_distinct_distance_once(
        monkeypatch, kind, params, n):
    nodes = quadrature_nodes(make_curve(kind, **params), n)
    counting = _CountingSpecial()
    monkeypatch.setattr(layer_ops, "special", counting)
    k = compute_kc(0.3, -3.0, 1e-2)
    assemble_S_omega(nodes, k)
    assemble_Kstar_omega(nodes, k)
    assert counting.sizes == [nodes.pairwise.r_distinct.size] * 4
    assert nodes.pairwise.r_distinct.size < n * (n - 1) // 2


def test_potential_series_and_hankel_routes_agree_at_the_cut():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 128)
    targets = nodes.interior.coarse
    density = np.cos(2.0 * nodes.t) + 0.3j * np.sin(nodes.t)
    wphi = nodes.weights * density
    cut = layer_ops._SERIES_KR_MAX
    for direction in (1.0, np.exp(-1.2j)):
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            k = side * cut / targets.r_max * direction
            series = gamma_helmholtz_series(targets.log_r, targets.r2, k) @ wphi
            hankel = (-0.25j * special.hankel1(0, k * np.sqrt(targets.r2))) @ wphi
            routed = eval_potential(nodes, density, k, targets.points)
            assert np.array_equal(routed, series if side < 1.0 else hankel)
            assert np.max(np.abs(series - hankel)) <= 1e-13 * np.max(np.abs(hankel))


def test_j0m1_mpmath_at_the_series_cut():
    # J0(z) - 1: series below |z| = 0.5, jv above; real and
    # fourth-quadrant complex arguments keep their dtype
    mpmath = pytest.importorskip("mpmath")
    for direction in (1.0, np.exp(-0.4j), np.exp(-1.2j), -1j):
        z = np.array([1e-6, 0.3, 0.49, 0.4999999, 0.5, 0.5000001, 0.51, 1.0]) * direction
        got = reference_ops._j0m1(z)
        assert got.dtype == z.dtype
        for zi, gi in zip(z, got):
            zi = complex(zi)
            with mpmath.workdps(40):
                want = complex(mpmath.besselj(0, mpmath.mpc(zi.real, zi.imag)) - 1)
            assert abs(gi - want) <= 1e-13 * abs(want)


def test_weighted_symmetry_and_plemelj():
    # W S is symmetric; the adjoint identity K S = S K* with
    # K = W^{-1} K*^T W closes the Calderon structure
    for kind, params in [("ellipse", {"a": 2.0, "b": 1.0}), ("kite", {})]:
        nodes = quadrature_nodes(make_curve(kind, **params), 192)
        w = nodes.weights
        s_mat = assemble_S(nodes)
        k_mat = assemble_Kstar(nodes)
        ws = w[:, None] * s_mat
        assert np.linalg.norm(ws - ws.T) < 1e-12 * np.linalg.norm(ws)
        lhs = (k_mat.T * w[None, :] / w[:, None]) @ s_mat
        rhs = s_mat @ k_mat
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(rhs)


def test_helmholtz_weighted_symmetry():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 128)
    sk = assemble_S_omega(nodes, 0.3)
    ws = nodes.weights[:, None] * sk
    assert np.linalg.norm(ws - ws.T) < 1e-12 * np.linalg.norm(ws)


def test_low_frequency_remainder_closure_2d():
    # S^w = S + tau(w) <., 1> + w^2 ln w R2 with R2 assembled from the
    # series remainder kernel, a genuine second route
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 128)
    s0 = assemble_S(nodes)
    for om in (0.1, 0.01):
        sw = assemble_S_omega(nodes, om)
        r2, q2 = assemble_R_Q(nodes, om)
        rank1 = tau(om) * np.outer(np.ones(nodes.n), nodes.weights)
        recon = s0 + rank1 + om * om * np.log(om) * r2
        assert np.linalg.norm(recon - sw) < 1e-10 * np.linalg.norm(sw)
        k0 = assemble_Kstar(nodes)
        kw = assemble_Kstar_omega(nodes, om)
        recon_k = k0 + om * om * np.log(om) * q2
        assert np.linalg.norm(recon_k - kw) < 1e-12 * max(np.linalg.norm(kw), 1.0)


def test_remainder_norms_stable_across_frequency():
    # the scaled remainders must stay O(1) as omega -> 0: their norms
    # may drift by at most a factor 2 over three decades
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 96)
    norms_r, norms_q = [], []
    for om in (1e-1, 1e-2, 1e-3, 1e-4):
        r2, q2 = assemble_R_Q(nodes, om)
        norms_r.append(np.linalg.norm(r2))
        norms_q.append(np.linalg.norm(q2))
    assert max(norms_r) / min(norms_r) < 2.0
    assert max(norms_q) / min(norms_q) < 2.0


def test_remainder_stability_sphere():
    norms_r, norms_q = [], []
    for om in (1e-1, 1e-2, 1e-3, 1e-4):
        r3, q3 = assemble_R_Q((8, 1.0), om, d=3)
        norms_r.append(np.linalg.norm(r3))
        norms_q.append(np.linalg.norm(q3))
    assert max(norms_r) / min(norms_r) < 2.0
    assert max(norms_q) / min(norms_q) < 2.0


def test_wavenumber_resolution_gate():
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 128)
    with pytest.raises(ValueError):
        assemble_S_omega(nodes, 1.3)  # |k| diam = 5.2 beyond the gate


def test_eval_potential_exterior_harmonic():
    # S[cos t] = -cos(theta)/(2 r) outside the unit circle; at (2, 0)
    # the value is -1/4 and the x-gradient is exactly 1/8
    nodes = _circle()
    ct = np.cos(nodes.t)
    val = eval_potential(nodes, ct, 0.0, np.array([[2.0, 0.0]]))
    grad = eval_gradient(nodes, ct, 0.0, np.array([[2.0, 0.0]]))
    assert abs(val[0] + 0.25) < 1e-12
    assert abs(grad[0, 0] - 0.125) < 1e-12
    assert abs(grad[0, 1]) < 1e-12
    # generic exterior point, n = 2 mode: -cos(2 theta) / (4 r^2)
    pt = np.array([[1.2, 0.9]])
    r = np.hypot(1.2, 0.9)
    th = np.arctan2(0.9, 1.2)
    val2 = eval_potential(nodes, np.cos(2 * nodes.t), 0.0, pt)
    assert abs(val2[0] + np.cos(2 * th) / (4.0 * r * r)) < 1e-10


def test_eval_potential_interior_and_jump_relations():
    # interior: S[cos 3t] = -r^3 cos(3 theta)/6, radial derivative
    # -(r^2/2) cos(3 theta); exterior: -cos(3 theta)/(6 r^3), radial
    # derivative cos(3 theta)/(2 r^4). Their r -> 1 limits realize the
    # (-1/2 + K*) and (+1/2 + K*) jump values with K*[cos 3t] = 0.
    nodes = _circle(256)
    c3 = np.cos(3 * nodes.t)
    th = np.pi / 5.0
    for r, sign in ((0.85, -1.0), (1.15, 1.0)):
        pt = r * np.array([[np.cos(th), np.sin(th)]])
        val = eval_potential(nodes, c3, 0.0, pt)
        grad = eval_gradient(nodes, c3, 0.0, pt)
        radial = grad[0] @ np.array([np.cos(th), np.sin(th)])
        if sign < 0:
            assert abs(val[0] + r ** 3 * np.cos(3 * th) / 6.0) < 1e-10
            assert abs(radial + r * r * np.cos(3 * th) / 2.0) < 1e-9
        else:
            assert abs(val[0] + np.cos(3 * th) / (6.0 * r ** 3)) < 1e-10
            assert abs(radial - np.cos(3 * th) / (2.0 * r ** 4)) < 1e-9
    # the closed forms above continue to r = 1 with values
    # -cos(3 th)/2 and +cos(3 th)/2: the two-sided jump of value one
    # predicted by (+-1/2 + K*) on a null mode of K*
    assert abs((np.cos(3 * th) / 2.0) - (-(-np.cos(3 * th) / 2.0))) < 1e-15


def test_eval_gradient_block_equals_column_calls():
    nodes = _circle(64)
    block = np.cos(np.outer(nodes.t, np.arange(1, 5)))
    pts = np.array([[2.0, 0.5], [0.0, -3.0]])
    for k in (0.0, 0.4):
        grads = eval_gradient(nodes, block, k, pts)
        assert grads.shape == (2, 2, 4)
        for j in range(4):
            np.testing.assert_allclose(grads[..., j], eval_gradient(nodes, block[:, j], k, pts),
                                       rtol=1e-13, atol=1e-16)
    with pytest.raises(ValueError):
        eval_gradient(nodes, np.ones((64, 2, 2)), 0.0, pts)


def test_eval_potential_rejects_near_boundary_points():
    nodes = _circle(64)
    near = np.array([[1.0 + 0.5 * nodes.spacing, 0.0]])
    for evaluate in (eval_potential, eval_gradient):
        with pytest.raises(ValueError):
            evaluate(nodes, np.ones(64), 0.0, near)


def test_helmholtz_potential_exterior_closed_form():
    # exterior Helmholtz single layer of e^{int} on the unit circle:
    # u(r, theta) = -(i pi / 2) J_n(k) H_n(k r) e^{i n theta}
    nodes = _circle(256)
    k, n = 0.4, 2
    phi = np.exp(1j * n * nodes.t)
    r, th = 2.0, 0.7
    pt = r * np.array([[np.cos(th), np.sin(th)]])
    val = eval_potential(nodes, phi, k, pt)
    grad = eval_gradient(nodes, phi, k, pt)
    coef = -1j * np.pi / 2.0 * special.jv(n, k)
    u_exact = coef * special.hankel1(n, k * r) * np.exp(1j * n * th)
    assert abs(val[0] - u_exact) < 1e-10
    du_dr = coef * k * special.h1vp(n, k * r) * np.exp(1j * n * th)
    radial = grad[0] @ np.array([np.cos(th), np.sin(th)])
    assert abs(radial - du_dr) < 1e-10


def test_sphere_operator_diagonals():
    s0, k0 = sphere_operators(Sphere(8, 1.0))
    sk, kk = sphere_operators(Sphere(8, 1.0), 0.5)
    deg = sphere_degree_index(8)
    s_diag = s0
    k_diag = k0
    assert np.allclose(s_diag, -1.0 / (2 * deg + 1), atol=1e-14)
    assert np.allclose(k_diag, 0.5 / (2 * deg + 1), atol=1e-14)
    idx_n1 = 1 + 1  # (n, m) = (1, 0) slot inside the n = 1 triple
    assert abs(sk[idx_n1] - SK_SPHERE_N1) < 1e-12
    # scaling in R: S scales like R, K* is scale free
    s0b, k0b = sphere_operators(Sphere(8, 2.5))
    assert np.allclose(s0b, 2.5 * s_diag, atol=1e-13)
    assert np.allclose(k0b, k_diag, atol=1e-14)


# fourth-quadrant directions of the sweep's k_c (eps_c = -2) at delta = 1e-2
# and 1e-5, and the real axis
_KC_RAYS = tuple(compute_kc(1.0, -2.0, d) / abs(compute_kc(1.0, -2.0, d))
                 for d in (1e-2, 1e-5)) + (1.0,)


@pytest.mark.parametrize("size, tol, rays", [
    (1e-8, 1e-15, _KC_RAYS), (1e-4, 1e-15, _KC_RAYS), (1e-2, 1e-15, _KC_RAYS),
    (0.2, 1e-15, _KC_RAYS), (0.49, 1e-15, _KC_RAYS), (0.51, 2e-15, _KC_RAYS),
    (1.0, 2e-15, _KC_RAYS), (2.0, 2e-15, _KC_RAYS), (4.0, 2e-15, _KC_RAYS[:2]),
    (7.0, 2e-15, _KC_RAYS[:2]), (10.0, 2e-15, _KC_RAYS[:2])])
def test_sphere_radial_integrals_mpmath(size, tol, rays):
    # i_mass and i_grad of every degree 0..40 against their closed forms in
    # 50-digit mpmath, from the double series of the k R terms at every
    # size: measured within 4.9e-16 below |k| R = 0.5 and 8.4e-16 above it
    # (|k| R = 10 on the delta = 1e-2 ray). Past |k| R = 2 the real axis
    # is refused (test_sphere_radial_integrals_refuse_cancellation)
    pytest.importorskip("mpmath")
    L = 40
    pole = np.arange(L + 1) ** 2 + np.arange(L + 1)
    for radius in (1.0, 2.0):
        for ray in rays:
            k = size * ray / radius
            i_mass, i_grad = helmholtz_operators(Sphere(L, radius), k).tables()
            for n in range(L + 1):
                want = reference_ops.sphere_radial_integrals_mp(n, k, radius)
                for got, ref in zip((i_mass[pole[n]], i_grad[pole[n]]), want):
                    assert abs(got - ref) <= tol * ref


def test_sphere_radial_integrals_refuse_cancellation():
    # the series' terms cancel near the real axis, where j_n(k R) has
    # zeros: at |k| R = 3 on the real axis (j_0 vanishes at pi) they cancel
    # by a factor of 5e3, which the series refuses, naming |k R|; 45 degrees
    # below the real axis at |k| R = 10, the largest size sphere_operators
    # takes, the factor is 350 and the values stay within 1e-14 of mpmath
    pytest.importorskip("mpmath")
    sphere = Sphere(40, 1.0)
    with pytest.raises(ValueError, match=r"\|k R\| = 3\b"):
        helmholtz_operators(sphere, 3.0).tables()
    k = 10.0 * np.exp(-0.25j * np.pi)
    i_mass, i_grad = helmholtz_operators(sphere, k).tables()
    for n in range(41):
        want = reference_ops.sphere_radial_integrals_mp(n, k, 1.0)
        for got, ref in zip((i_mass[n * n + n], i_grad[n * n + n]), want):
            assert abs(got - ref) <= 1e-14 * ref


# a negative radius, a degree below MIN_SPHERE_DEGREE, a fractional degree
_BAD_SPHERE_PAIRS = [(8, -1.0), (2, 1.0), (8.5, 1.0)]


@pytest.mark.parametrize("pair", _BAD_SPHERE_PAIRS)
def test_sphere_operators_check_a_plain_pair(pair):
    # a plain (L, R) is checked as a Sphere, as TransmissionProblem does:
    # unchecked, (8, -1.0) gives sign-flipped diagonals; helmholtz_operators
    # tags its pair with the Sphere
    pairs = zip(sphere_operators((8, 1.0), 0.5), sphere_operators(Sphere(8, 1.0), 0.5))
    for mine, want in pairs:
        assert np.array_equal(mine, want)
    ops = helmholtz_operators((8, 1.0), 0.5)
    assert type(ops.geometry) is Sphere and ops.geometry == Sphere(8, 1.0)
    for build in (sphere_operators, helmholtz_operators):
        with pytest.raises(ValueError, match="sphere (degree|radius)"):
            build(pair, 0.5)


def test_operators_are_read_only():
    # every assembler returns its operator read-only, so one shared by
    # the sweep's threads and solves cannot be written through
    nodes = _circle(32)
    sphere = Sphere(8, 1.0)
    for op in (assemble_S(nodes), assemble_Kstar(nodes), assemble_S_omega(nodes, 0.5),
               assemble_Kstar_omega(nodes, 0.5), *sphere_operators(sphere),
               *sphere_operators(sphere, 0.5)):
        assert not op.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            op[0] = 0.0


def test_sphere_diagonal_by_quadrature_spot_checks():
    # independent surface quadrature against the spectral diagonals at
    # (n, m) = (0,0), (1,0), (2,1), static and k = 0.5
    for k in (0.0, 0.5):
        s_op, k_op = sphere_operators(Sphere(8, 1.0), k)
        deg = sphere_degree_index(8)
        for n, m in ((0, 0), (1, 0), (2, 1)):
            slot = n * n + n + m
            for which, op in (("S", s_op), ("Kstar", k_op)):
                quad = sphere_diagonal_by_quadrature(n, m, 1.0, k, which=which)
                assert abs(quad - op[slot]) < 1e-8
