"""
Boundary geometries and their quadrature discretizations.

2D boundaries are closed analytic curves with a global 2pi-periodic
parameterization x(t). They are discretized with equispaced-in-parameter
trapezoid nodes, which integrate analytic periodic integrands with
spectral accuracy. The sphere has no curve: all 3D work is done
spectrally in a spherical-harmonic basis on a `Sphere(L, R)`, which is
checked once when it is built, and needs no surface mesh.

Interior point sets are regular grids clipped to the domain with a
buffer distance from the boundary; they serve as independent quadrature
for volume-integral cross checks.

Everything a node set's kernels need that does not depend on the
wavenumber is derived from the nodes once and kept on the NodeSet:
`NodeSet.pairwise` (node-to-node distances, log factors, quadrature
weights) and `NodeSet.interior` (the interior volume quadrature with the
distances from its points to the nodes). A sweep over the loss then
only evaluates wavenumber-dependent functions.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BoundaryCurve",
    "NodeSet",
    "Sphere",
    "InteriorPointSet",
    "PairwiseGeometry",
    "TargetSet",
    "InteriorQuadrature",
    "make_curve",
    "quadrature_nodes",
    "interior_points",
    "log_weight_matrix",
]

# coefficients of the standard smooth kite curve
_KITE_A = 0.65
_KITE_B = 1.5

# vertices of the boundary polygon that interior_points clips its grid to
_POLYGON_NODES = 512

# smallest spherical-harmonic truncation degree a sphere accepts
MIN_SPHERE_DEGREE = 4

# largest node count and sphere degree: the first array each one sizes has
# N^2 node pairs or (L + 1)^2 harmonic slots, kept to 2^24 entries, so that
# one complex array of that size is 256 MiB
MAX_NODES = 4096
MAX_SPHERE_DEGREE = MAX_NODES - 1

# each curve kind's parameters, in the order `kind:v1,v2` lists them, with
# their defaults; None marks a parameter make_curve requires
CURVE_PARAMS = {"circle": {"radius": 1.0}, "ellipse": {"a": None, "b": None}, "kite": {}}


def is_integer(value):
    """True for an int or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value):
    """True for an int or a float, numpy's too; a bool is neither."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def as_number(name, value):
    """float(value) for a number (is_number) in float range, else ValueError naming it."""
    if not is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number within the float range") from None


@dataclass(frozen=True)
class BoundaryCurve:
    """
    Closed C^2 boundary curve.

    Curves are oriented counter-clockwise; the outward unit normal is
    nu(t) = (x2'(t), -x1'(t)) / |x'(t)|.

    Attributes
    ----------
    kind : str
        One of 'circle', 'ellipse', 'kite'.
    params : dict
        Geometry parameters (circle: radius; ellipse: a, b).
    """

    kind: str
    params: dict

    def point(self, t):
        """Parameterization x(t), shape (len(t), 2)."""
        return self._eval(t, 0)

    def derivative(self, t):
        """First derivative x'(t)."""
        return self._eval(t, 1)

    def second_derivative(self, t):
        """Second derivative x''(t)."""
        return self._eval(t, 2)

    def _eval(self, t, order):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            r = self.params["radius"]
            c, s = np.cos(t), np.sin(t)
            comps = [(r * c, r * s), (-r * s, r * c), (-r * c, -r * s)]
        elif self.kind == "ellipse":
            a, b = self.params["a"], self.params["b"]
            c, s = np.cos(t), np.sin(t)
            comps = [(a * c, b * s), (-a * s, b * c), (-a * c, -b * s)]
        else:  # kite
            c, s = np.cos(t), np.sin(t)
            c2, s2 = np.cos(2 * t), np.sin(2 * t)
            comps = [
                (c + _KITE_A * (c2 - 1.0), _KITE_B * s),
                (-s - 2.0 * _KITE_A * s2, _KITE_B * c),
                (-c - 4.0 * _KITE_A * c2, -_KITE_B * s),
            ]
        return np.stack(comps[order], axis=-1)


def read_only(*arrays):
    """Mark each of arrays read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


@dataclass(frozen=True, eq=False)
class NodeSet:
    """
    Trapezoid quadrature nodes on a 2D boundary curve.

    weights carry the arclength measure: w_j = (2 pi / N) |x'(t_j)|, so
    sum(w) approximates the perimeter to spectral accuracy. The arrays
    are read-only.
    """

    curve: BoundaryCurve
    t: np.ndarray           # parameter values, shape (N,)
    points: np.ndarray      # x(t_j), shape (N, 2)
    jacobians: np.ndarray   # |x'(t_j)|, shape (N,)
    weights: np.ndarray     # arclength weights, shape (N,)
    normals: np.ndarray     # outward unit normals, shape (N, 2)
    curvatures: np.ndarray  # signed curvature kappa(t_j), shape (N,)

    def __post_init__(self):
        read_only(self.t, self.points, self.jacobians, self.weights, self.normals, self.curvatures)

    @property
    def n(self):
        return self.t.size

    @property
    def perimeter(self):
        return float(np.sum(self.weights))

    @property
    def spacing(self):
        """Maximum arclength spacing between adjacent nodes."""
        return float(np.max(self.jacobians)) * 2.0 * np.pi / self.n

    @cached_property
    def pairwise(self):
        """Node-to-node geometry (PairwiseGeometry), built on first use."""
        return PairwiseGeometry.of(self)

    @cached_property
    def interior(self):
        """Interior volume quadrature (InteriorQuadrature), built on first use."""
        return InteriorQuadrature.of(self)


class Sphere(namedtuple("Sphere", "L R")):
    """
    The radius-R sphere with spherical harmonics of degrees 0..L, checked
    once, here: L an integer (is_integer) from MIN_SPHERE_DEGREE to
    MAX_SPHERE_DEGREE and R a finite positive number (is_number), stored
    as (int, float). Every sphere routine trusts it.
    """

    __slots__ = ()

    def __new__(cls, L, R):
        if not (is_integer(L) and L >= MIN_SPHERE_DEGREE):
            raise ValueError(f"sphere degree must be an integer L >= {MIN_SPHERE_DEGREE}, "
                             f"got {L!r}")
        if L > MAX_SPHERE_DEGREE:
            raise ValueError(f"sphere degree must be at most {MAX_SPHERE_DEGREE}")
        R = as_number("sphere radius", R)
        if not 0.0 < R < np.inf:
            raise ValueError(f"sphere radius must be finite and R > 0, got {R!r}")
        return super().__new__(cls, int(L), R)

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))


@dataclass(frozen=True)
class InteriorPointSet:
    """Regular-grid quadrature points inside the domain, buffered from the boundary."""

    points: np.ndarray   # shape (M, 2)
    weights: np.ndarray  # cell areas, shape (M,)
    buffer: float


@dataclass(frozen=True)
class PairwiseGeometry:
    """
    Node-to-node geometry shared by every kernel matrix on a NodeSet.

    r[i, j] = |x_i - x_j| with a unit diagonal, exactly symmetric
    (x_i - x_j = -(x_j - x_i) in IEEE arithmetic); r_distinct[r_index]
    equals r off the diagonal, with r_distinct the sorted distinct
    distances and r_index int32 (its diagonal points anywhere);
    logsin[i, j] = ln(4 sin^2((t_i - t_j)/2)) with a zero diagonal;
    nu_dot[i, j] = nu_i . (x_i - x_j) and nu_dot_r = nu_dot / r;
    log_weights is log_weight_matrix(n). The arrays are read-only.
    """

    r: np.ndarray
    r_distinct: np.ndarray
    r_index: np.ndarray
    logsin: np.ndarray
    nu_dot: np.ndarray
    nu_dot_r: np.ndarray
    log_weights: np.ndarray

    @classmethod
    def of(cls, nodes):
        x = nodes.points
        dx = x[:, None, :] - x[None, :, :]
        r = np.sqrt(np.sum(dx * dx, axis=-1))
        np.fill_diagonal(r, 1.0)
        t = nodes.t
        s2 = 4.0 * np.sin(0.5 * (t[:, None] - t[None, :])) ** 2
        np.fill_diagonal(s2, 1.0)
        logsin = np.log(s2)
        np.fill_diagonal(logsin, 0.0)
        nu_dot = np.einsum("id,ijd->ij", nodes.normals, dx)
        nu_dot_r = nu_dot / r
        upper = np.triu_indices(nodes.n, 1)
        r_distinct, inverse = np.unique(r[upper], return_inverse=True)
        r_index = np.zeros(r.shape, dtype=np.int32)
        r_index[upper] = r_index.T[upper] = inverse
        log_weights = log_weight_matrix(nodes.n)
        read_only(r, r_distinct, r_index, logsin, nu_dot, nu_dot_r, log_weights)
        return cls(r, r_distinct, r_index, logsin, nu_dot, nu_dot_r, log_weights)


@dataclass(frozen=True)
class TargetSet:
    """
    Points off a NodeSet's boundary, with what every single-layer
    evaluation on them needs from the geometry: log_r[i, j] = ln |p_i -
    x_j|, r2[i, j] = |p_i - x_j|^2 and the largest distance r_max.
    weights are the points' volume quadrature weights, or None. The
    arrays are read-only.
    """

    points: np.ndarray
    weights: np.ndarray
    log_r: np.ndarray
    r2: np.ndarray
    r_max: float

    @classmethod
    def of(cls, nodes, points, weights=None):
        """
        Distances from points, shape (m, 2), to the nodes. Points closer
        than twice the node spacing to a node are rejected: the
        quadrature cannot resolve the kernel there.
        """
        points = np.array(points, dtype=float, ndmin=2)
        if points.shape[1] != 2:
            raise ValueError("points must have shape (m, 2)")
        r2 = ((points[:, :1] - nodes.points[:, 0]) ** 2
              + (points[:, 1:] - nodes.points[:, 1]) ** 2)
        r = np.sqrt(r2)
        buffer = 2.0 * nodes.spacing
        if np.any(r.min(axis=1) < buffer):
            raise ValueError(
                f"evaluation point within {buffer:.3g} of the boundary; "
                "near-boundary evaluation is unsupported"
            )
        log_r = np.log(r)
        read_only(points, log_r, r2)
        if weights is not None:
            weights = read_only(np.array(weights, dtype=float))
        return cls(points, weights, log_r, r2, float(r.max(initial=0.0)))


@dataclass(frozen=True)
class InteriorQuadrature:
    """
    Volume quadrature of the domain a NodeSet bounds, at its node
    spacing h_b: a collar of width `collar` = 2.5 h_b along the
    boundary, closed by the trapezoid rule between the nodes and the
    `edge` points x - collar nu, and two regular grids behind the
    collar, `coarse` (step 2 h_b) and `fine` (step 1.5 h_b). All three
    are TargetSets of the nodes.
    """

    collar: float
    edge: TargetSet
    coarse: TargetSet
    fine: TargetSet

    @classmethod
    def of(cls, nodes):
        b = 2.5 * nodes.spacing

        def grid(h):
            g = interior_points(nodes.curve, h, buffer=b)
            return TargetSet.of(nodes, g.points, g.weights)

        edge = TargetSet.of(nodes, nodes.points - b * nodes.normals)
        return cls(b, edge, grid(2.0 * nodes.spacing), grid(1.5 * nodes.spacing))


def make_curve(kind, **params):
    """
    Construct a 2D boundary curve of a kind of CURVE_PARAMS: 'circle'
    (radius, default 1), 'ellipse' (a >= b, both required), or 'kite' (no
    parameters; standard coefficients). Parameters are numbers
    (is_number), stored as floats; an unknown kind, an unexpected or
    missing parameter, or one that is not a number raises ValueError
    naming it.
    """
    if kind not in CURVE_PARAMS:
        raise ValueError(f"unknown geometry kind {kind!r}")
    defaults = CURVE_PARAMS[kind]
    unexpected = sorted(set(params) - set(defaults))
    if unexpected:
        raise ValueError(f"unexpected parameters for {kind}: {unexpected}")
    missing = [name for name, v in defaults.items() if v is None and name not in params]
    if missing:
        raise ValueError(f"missing parameters for {kind}: {missing}")
    params = {name: as_number(f"{kind} {name}", value)
              for name, value in {**defaults, **params}.items()}
    if kind == "circle" and not 0.0 < params["radius"] < np.inf:
        raise ValueError(f"circle radius must be finite and positive, got {params['radius']}")
    if kind == "ellipse" and not np.inf > params["a"] >= params["b"] > 0.0:
        raise ValueError(f"ellipse requires finite a >= b > 0, got a={params['a']}, "
                         f"b={params['b']}")
    return BoundaryCurve(kind, params)


def quadrature_nodes(curve, n):
    """
    Equispaced-in-parameter trapezoid nodes with arclength weights.

    Parameters
    ----------
    curve : BoundaryCurve
        Boundary curve.
    n : int
        Node count, an integer (is_integer, never rounded to one), even
        and from 16 to MAX_NODES; else ValueError.
    """
    if not is_integer(n):
        raise ValueError(f"node count n must be an integer, got {n!r}")
    if n > MAX_NODES:
        raise ValueError(f"node count n must be at most {MAX_NODES}")
    if n % 2 != 0 or n < 16:
        raise ValueError(f"node count must be even and >= 16, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    x = curve.point(t)
    dx = curve.derivative(t)
    ddx = curve.second_derivative(t)
    jac = np.hypot(dx[:, 0], dx[:, 1])
    normals = np.stack([dx[:, 1], -dx[:, 0]], axis=-1) / jac[:, None]
    curv = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / jac**3
    weights = (2.0 * np.pi / n) * jac
    return NodeSet(curve, t, x, jac, weights, normals, curv)


def _inside_polygon(points, poly):
    """Even-odd ray casting against a closed polygon, vectorized over points."""
    x, y = points[:, 0], points[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    # edge straddles the horizontal line through y; crossing strictly left of x
    straddle = (y0[None, :] > y[:, None]) != (y1[None, :] > y[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0[None, :] + (y[:, None] - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
    hits = straddle & (xcross > x[:, None])
    return (np.sum(hits, axis=1) % 2) == 1


def interior_points(curve, h, buffer):
    """
    Regular grid of interior quadrature points with weight h^2 each,
    keeping only points at distance >= buffer from the boundary.

    Raises ValueError if no point survives (buffer exceeds the inradius).
    """
    if h <= 0 or buffer <= 0:
        raise ValueError("h and buffer must be positive")
    tb = 2.0 * np.pi * np.arange(_POLYGON_NODES) / _POLYGON_NODES
    poly = curve.point(tb)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    gx = np.arange(lo[0] + h / 2, hi[0], h)
    gy = np.arange(lo[1] + h / 2, hi[1], h)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    pts = pts[_inside_polygon(pts, poly)]
    # nearest-vertex squared distance, 256 points per block (~1 MB temporaries)
    d2 = [np.min((p[:, :1] - poly[:, 0]) ** 2 + (p[:, 1:] - poly[:, 1]) ** 2, axis=1)
          for p in np.split(pts, range(256, pts.shape[0], 256))]
    pts = pts[np.sqrt(np.concatenate(d2)) >= buffer]
    if pts.shape[0] == 0:
        raise ValueError(f"no interior points at distance >= {buffer}; buffer exceeds inradius")
    return InteriorPointSet(pts, np.full(pts.shape[0], h * h), float(buffer))


def log_weight_matrix(n):
    """
    Circulant quadrature matrix R with

        sum_j R[i, j] f(t_j)  ~  int_0^{2pi} ln(4 sin^2((t_i - s)/2)) f(s) ds,

    exact for trigonometric polynomials of degree < n/2. Requires even n.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("n must be even and >= 4")
    j = np.arange(n)
    dt = 2.0 * np.pi * j / n
    m = np.arange(1, n // 2)
    rvec = -(4.0 * np.pi / n) * (np.cos(np.outer(dt, m)) / m).sum(axis=1)
    rvec -= (4.0 * np.pi / n**2) * np.cos(n * dt / 2.0)
    idx = (j[:, None] - j[None, :]) % n
    return rvec[idx]
