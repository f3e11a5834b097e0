"""
Spectral decomposition of the adjoint NP operator.

K* is self-adjoint in the inner product <phi, psi> = -<phi, S~ psi>,
where S~ coincides with the single layer S on mean-zero densities and is
adjusted on the equilibrium direction phi_0 (the density whose
single-layer potential is constant on the boundary, eigendensity at
lambda_0 = 1/2). The discrete Gram matrix built here is positive
definite for every curve: on mean-zero densities it is the quadrature
realization of -<phi, S psi>, which is positive there, and the
equilibrium direction is normalized to unit length and kept orthogonal
to the rest. This sidesteps the classical 2D capacity defect (the raw
form flips sign on phi_0 when the interior value c_0 of S[phi_0] is
positive) while agreeing with the raw form whenever that form is
definite.

Normalization bookkeeping: phi_0 is stored with |c_0 m_0| = 1 and
m_0 = int phi_0 dsigma > 0, where c_0 here is the interior constant of
S[phi_0] for the stored scaling (field c0_h). The reported c0 (field
c0) rescales phi_0 to unit mean, making it comparable with the classical
value of S[1] (R ln R on a radius-R circle, -R on a radius-R sphere).
When the reported c0 vanishes (within threshold) the spectrum is
patched: the stored scaling is m_0 = 1, c0_h is exactly 0, and the S~
patch sends phi_0 to the constant function m_0: patched <=> c0_h == 0.
spectrum_of is the one way to build a 2D spectrum.

Everything is dimension-uniform: the sphere realization is diagonal over
spherical-harmonic coefficients and produces the same NPSpectrum record
with its matrices stored as 1-D diagonals, so coefficient transforms and
the transmission solvers are shared and act elementwise on the sphere.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .geometry import NodeSet, Sphere
from .layer_ops import assemble_Kstar, assemble_S, sphere_degree_index, sphere_operators

__all__ = [
    "NPSpectrum",
    "sphere_spectrum",
    "spectrum_of",
    "coeffs_hat",
    "coeffs_check",
    "cluster_ids",
]

# eigenvalues this close count as equal: for the tie-break of the slot
# order (relative to 1 + |lambda|) and for the cluster ids (absolute)
_TIE_TOL = 1e-8

# relative residual of the S~ expansion above which coeffs_check raises
_EXPANSION_TOL = 1e-6


@dataclass(frozen=True)
class NPSpectrum:
    """
    H*-orthonormal eigendecomposition of the adjoint NP operator.

    densities holds eigendensities as columns (nodal values in 2D,
    orthonormal-surface-harmonic coefficients on the sphere), ordered
    lambda_0 = 1/2 first, then decreasing |lambda|, ties ascending by
    signed value. wdiag are the diagonal surface quadrature weights of
    the trace pairing <phi, f> = (wdiag * f) @ phi: the arclength
    weights in 2D, ones over the sphere's surface-orthonormal
    coefficients. stilde_traces holds S~[phi_n] as columns. c0 is the
    reported unit-mean interior constant of S[phi_0] (-R on the sphere),
    c0_h the one of the stored phi_0; c0_h == 0 exactly when the
    constant slot is patched. geometry is the NodeSet or Sphere the
    spectrum belongs to. On the sphere densities, gram and stilde_traces
    are diagonal and stored as their 1-D diagonals.
    """

    lambdas: np.ndarray
    densities: np.ndarray
    gram: np.ndarray
    wdiag: np.ndarray
    m0: float
    c0: float
    c0_h: float
    ctilde0: float
    stilde_traces: np.ndarray
    dim: int
    geometry: object

    @property
    def n(self):
        return self.lambdas.size

    @property
    def phi0(self):
        if self.densities.ndim == 1:
            return np.where(np.arange(self.n) == 0, self.densities, 0.0)
        return self.densities[:, 0]


def _orient_columns(v):
    """Flip column signs so the first significant entry is positive."""
    for j in range(v.shape[1]):
        col = v[:, j]
        big = np.abs(col) > 1e-12 * np.max(np.abs(col))
        lead = col[np.argmax(big)]
        if lead.real < 0:
            v[:, j] = -col
    return v


def _order_by_magnitude(lam):
    """Indices sorted by decreasing |lambda|, clusters by ascending value."""
    idx = np.argsort(-np.abs(lam), kind="stable")
    out = []
    i = 0
    while i < idx.size:
        j = i
        while (
            j + 1 < idx.size
            and abs(abs(lam[idx[j + 1]]) - abs(lam[idx[i]]))
            <= _TIE_TOL * (1.0 + abs(lam[idx[i]]))
        ):
            j += 1
        cluster = sorted(idx[i : j + 1], key=lambda k: lam[k])
        out.extend(cluster)
        i = j + 1
    return np.array(out, dtype=int)


def _gram(s, nodes):
    """
    H* Gram matrix of the single-layer matrix s on a 2D NodeSet.

    Finds the equilibrium density by the bordered solve
    [S, -1; w^T, 0][phi0; c] = [0; 1], reports c0 (unit-mean scaling),
    decides the patch, rescales phi0 to |c0_h m0| = 1 (or m0 = 1 when
    patched), and assembles

        G = P^T M P + q q^T,   M = -(W S + S^T W)/2,
        q = w / m0,            P = I - phi0 q^T,

    which is symmetric positive definite, restricts to -W S on mean-zero
    densities, and gives phi0 unit norm. Returns (G, phi0, scalars), the
    scalars being the NPSpectrum fields m0, c0, c0_h and ctilde0.
    """
    n = nodes.n
    w = nodes.weights
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = s
    bordered[:n, n] = -1.0
    bordered[n, :n] = w
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("equilibrium solve failed; boundary degenerate") from exc
    phi0_raw, c_raw = sol[:n], sol[n]
    resid = np.max(np.abs(s @ phi0_raw - c_raw))
    if resid > 1e-8 * (1.0 + abs(c_raw)):
        raise RuntimeError(f"equilibrium residual {resid:.2e}; quadrature too coarse")
    perimeter = nodes.perimeter
    c0 = c_raw * perimeter
    if abs(c0) < 1e-8 * (1.0 + perimeter):
        phi0, m0, c0_h, ctilde0 = phi0_raw, 1.0, 0.0, 1.0
    else:
        scale = np.sqrt(abs(c_raw))
        phi0, m0, c0_h = phi0_raw / scale, 1.0 / scale, c_raw / scale
        ctilde0 = c0_h
    q = w / m0
    m = -(w[:, None] * s + s.T * w[None, :]) / 2.0
    proj = np.eye(n) - np.outer(phi0, q)
    g = proj.T @ m @ proj + np.outer(q, q)
    return (g + g.T) / 2.0, phi0, dict(m0=m0, c0=c0, c0_h=c0_h, ctilde0=ctilde0)


def _planar_spectrum(nodes):
    """
    Solve the G-symmetric eigenproblem for K* on a 2D NodeSet.

    K* is self-adjoint in the G inner product, so G K* is symmetric up
    to quadrature error; an asymmetry beyond 1e-6 relative signals a
    broken symmetrization and raises, and so does a G that eigh cannot
    factor (not positive definite). Eigenvectors come out
    G-orthonormal; the lambda_0 slot is replaced by the equilibrium
    density of _gram, so the spectral solvers see exactly the
    normalization fixed there.
    """
    sm = assemble_S(nodes)
    g, phi0, scalars = _gram(sm, nodes)
    gk = g @ assemble_Kstar(nodes)
    asym = np.linalg.norm(gk - gk.T) / max(np.linalg.norm(gk), 1e-300)
    if asym > 1e-6:
        raise RuntimeError(
            f"G K* asymmetry {asym:.2e}; K* is not self-adjoint in this Gram"
        )
    try:
        lam, vec = linalg.eigh((gk + gk.T) / 2.0, g)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Gram matrix not positive definite (smallest eigenvalue "
                           f"{linalg.eigvalsh(g)[0]:.3e})") from exc
    i0 = int(np.argmax(lam))
    rest = np.delete(np.arange(lam.size), i0)
    order = np.concatenate(([i0], rest[_order_by_magnitude(lam[rest])]))
    lam = lam[order]
    vec = vec[:, order]
    vec[:, 0] = phi0
    vec = _orient_columns(vec)
    stilde = sm @ vec
    stilde[:, 0] = scalars["ctilde0"]
    return NPSpectrum(lambdas=lam, densities=vec, gram=g, wdiag=nodes.weights,
                      stilde_traces=stilde, dim=2, geometry=nodes, **scalars)


def sphere_spectrum(sphere):
    """
    Exact NP spectrum on a Sphere (L, R), diagonal over real spherical
    harmonics: lambda_n = 1/(2(2n+1)) with multiplicity 2n+1.

    Coefficients refer to the basis Yhat_nm = Y_nm / R, orthonormal in
    L^2 of the surface; the H*-orthonormal eigendensities are
    beta_n Yhat_nm with beta_n = sqrt((2n+1)/R), stored as 1-D diagonals.
    A plain (L, R) is checked as a Sphere.
    """
    L, R = sphere = Sphere(*sphere)
    deg = sphere_degree_index(L)
    s, kstar = sphere_operators(sphere)
    beta = np.sqrt((2.0 * deg + 1.0) / R)
    gram = -s
    m0 = np.sqrt(4.0 * np.pi * R)
    c0_h = -1.0 / m0
    stilde = -np.sqrt(gram)
    return NPSpectrum(
        lambdas=kstar,
        densities=beta,
        gram=gram,
        wdiag=np.ones(deg.size),
        m0=m0,
        c0=-R,
        c0_h=c0_h,
        ctilde0=c0_h,
        stilde_traces=stilde,
        dim=3,
        geometry=sphere,
    )


def cluster_ids(lambdas):
    """
    Multiplicity cluster id of each slot of an ordered spectrum: ids
    count up from 0, and a gap above 1e-8 between adjacent eigenvalues
    starts a new one.
    """
    gaps = np.abs(np.diff(lambdas)) > _TIE_TOL
    return np.concatenate(([0], np.cumsum(gaps)))


def spectrum_of(geometry):
    """NPSpectrum of a problem geometry: a 2D NodeSet or a Sphere (L, R)."""
    if isinstance(geometry, NodeSet):
        return _planar_spectrum(geometry)
    return sphere_spectrum(geometry)


def _matvec(mat, v):
    """mat @ v, where a 1-D mat is a diagonal (the sphere)."""
    return mat * v if mat.ndim == 1 else mat @ v


def coeffs_hat(phi, spectrum):
    """
    H* coefficients phi_hat(n) = <phi, phi_n>_{H*} of a density.

    The basis is G-orthonormal, so this is Phi^T G phi; Parseval
    sum |phi_hat|^2 = |phi|_{H*}^2 holds to roundoff.
    """
    phi = np.asarray(phi)
    if phi.shape != (spectrum.n,):
        raise ValueError(f"density must have shape ({spectrum.n},)")
    return _matvec(spectrum.densities.T, _matvec(spectrum.gram, phi))


def coeffs_check(f, spectrum):
    """
    Expansion coefficients f_check(n) of a boundary trace over the
    S~ image basis: f = sum_n f_check(n) S~[phi_n].

    Uses the duality -<phi_m, S phi_n>_{L^2 dsigma} = delta_mn on
    mean-zero modes: f_check(n >= 1) = -<phi_n, f>, and the constant
    sector f_check(0) = <phi_0, f> / (m_0 ctilde_0). Raises if the
    reconstruction misses f by more than 1e-6 relative (f outside the
    image space or quadrature too coarse).
    """
    f = np.asarray(f)
    if f.shape != (spectrum.n,):
        raise ValueError(f"trace must have shape ({spectrum.n},)")
    wf = spectrum.wdiag * f
    fcheck = -_matvec(spectrum.densities.T, wf)
    kappa = (spectrum.phi0 @ wf) / spectrum.m0
    fcheck[0] = kappa / spectrum.ctilde0
    recon = _matvec(spectrum.stilde_traces, fcheck)
    resid = np.linalg.norm(recon - f)
    if resid > _EXPANSION_TOL * max(np.linalg.norm(f), 1e-300):
        raise RuntimeError(f"S~ expansion residual {resid:.2e} exceeds tolerance")
    return fcheck
