"""
Loss sweeps: drive the dipole transmission solve over a decreasing
grid of loss parameters and classify the energy trend.

Each sweep fixes a boundary, a contrast eps_c, and a dipole, then
walks delta down a geometric grid with the inclusion scale s tied to
delta by the small-inclusion coupling rule

    s = c delta              (3D),
    s^2 |ln s| = c delta     (2D),

so the frequency detuning stays inside the loss-broadened resonance
at every point. One row is recorded per (delta, solver): the interior
field norm ||grad u||_{L^2}, the equilibrium-mode coefficient of the
solution, the resonant coupling strength, and solve diagnostics. When
the contrast sits on a plasmon eigenvalue the field norm grows like
1/delta, so the fitted slope of log ||grad u|| against log delta is
-1; off resonance the norm stays bounded and the slope is flat. The
verdict encodes which regime the data shows.

Rows are assembled in grid order, and every numeric cell is written
with shortest round-trip formatting, so a sweep writes byte-identical
CSV on repeated runs apart from the wall_time_ms column.
"""

import contextlib
import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .geometry import as_number, is_integer
from .layer_ops import InteriorKernels, assemble_S_omega, assemble_Kstar_omega
from .np_spectrum import spectrum_of, coeffs_hat, coeffs_check, cluster_ids
from .transmission import TransmissionProblem, plasmon_lambda, dipole_traces, \
    solve_direct, solve_spectral, gradient_energy, coupling_an, helmholtz_operators, \
    omega_terms

# solve_point stays out of __all__: perfbench's tracer wraps every __all__
# function, and a span per point would hide the spans it times below it
__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "CSV_COLUMNS",
    "run_sweep",
    "fit_blowup_rate",
    "scale_for_delta",
]

# exact CSV schema; column order is part of the output contract
CSV_COLUMNS = (
    "delta",
    "s",
    "omega",
    "energy_norm",
    "phi0_hat_abs",
    "a_n_abs",
    "solver",
    "residual",
    "wall_time_ms",
)

_SOLVERS = ("direct", "spectral", "both")

# rows enter the slope fit only below this relative residual
_FIT_RESIDUAL_TOL = 1e-8
_RESONANT_WINDOW = (-1.15, -0.85)
_BOUNDED_RATIO = 2.0
_MAX_INVALID_FRACTION = 0.3
_MIN_FIT_ROWS = 5
_MIN_FIT_DECADES = 2.0


def scale_for_delta(delta, coupling_c, dim):
    """
    Inclusion scale for a given loss under the coupling rule.

    3D is explicit, s = c delta. 2D solves s^2 |ln s| = c delta by
    fixed-point iteration, which contracts for s < 1/e; the root is
    unique there and reached to 1e-12 relative. A delta or coupling_c
    that is not finite and positive, or any other dim, raises
    ValueError.
    """
    if not (np.isfinite(delta) and np.isfinite(coupling_c)):
        raise ValueError(f"delta and coupling_c must be finite, got {delta!r}, "
                         f"{coupling_c!r}")
    if delta <= 0 or coupling_c <= 0:
        raise ValueError("delta and coupling_c must be positive")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if dim == 3:
        return coupling_c * delta
    target = coupling_c * delta
    if target >= 0.1:
        raise ValueError(f"coupling target {target:.3g} too large for the 2D rule")
    s = np.sqrt(target)
    for _ in range(200):
        s_next = np.sqrt(target / abs(np.log(s)))
        if abs(s_next - s) <= 1e-14 * s:
            s = s_next
            break
        s = s_next
    if abs(s * s * abs(np.log(s)) - target) > 1e-10 * target:
        raise RuntimeError("2D coupling rule iteration failed to converge")
    return float(s)


@dataclass(frozen=True)
class SweepConfig:
    """
    Immutable sweep description: the transmission problem minus
    (delta, s), the delta grid, the coupling strength, and the run
    controls.

    geometry is a NodeSet (dim 2) or a Sphere (dim 3); a plain (L, R)
    pair becomes a Sphere, as in TransmissionProblem. The grid runs from
    delta_max down to delta_min geometrically with points_per_decade
    points per factor of 10. coupling_c must keep the scale in the
    s << delta regime, so it is capped at 0.1. dim, points_per_decade
    and workers must be integers (is_integer), never rounded to one, and
    delta_max, delta_min and coupling_c numbers (as_number). workers (at
    least 1) is kept but does not change how a sweep runs (see
    run_sweep). csv_path must be a non-empty str and plot_path a str or
    None; plot_path is carried for front ends that render the CSV. The
    problems at both ends of the grid check the rest, and the config
    keeps the first one's geometry, eps_c, omega0, eps_m and z. Every
    refusal is a ValueError naming the field.
    """

    dim: int
    geometry: object
    eps_c: float
    omega0: float
    a: np.ndarray
    z: np.ndarray
    csv_path: str
    eps_m: float = 1.0
    delta_max: float = 1e-2
    delta_min: float = 1e-5
    points_per_decade: int = 4
    coupling_c: float = 0.01
    solver: str = "both"
    workers: int = 1
    plot_path: str = None

    def __post_init__(self):
        for name in ("dim", "points_per_decade", "workers"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("delta_max", "delta_min", "coupling_c"):
            object.__setattr__(self, name, as_number(name, getattr(self, name)))
        if not (isinstance(self.csv_path, str) and self.csv_path):
            raise ValueError(f"csv_path must be a non-empty string, got {self.csv_path!r}")
        if not (self.plot_path is None or isinstance(self.plot_path, str)):
            raise ValueError(f"plot_path must be a string, got {self.plot_path!r}")
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
        if not 0 < self.coupling_c <= 0.1:
            raise ValueError("coupling_c must lie in (0, 0.1]")
        for name in ("delta_max", "delta_min"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0 < self.delta_min < self.delta_max:
            raise ValueError("need 0 < delta_min < delta_max")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        # building the extreme problems validates the physical values,
        # geometry, dipole placement, and the omega <= cap constraint over
        # the whole grid
        grid = self.delta_grid()
        first = self.problem_at(float(grid[0]))
        for name in ("geometry", "eps_c", "omega0", "eps_m", "z"):
            object.__setattr__(self, name, getattr(first, name))
        object.__setattr__(self, "a", np.array(self.a, dtype=float))
        self.problem_at(float(grid[-1]))

    def delta_grid(self):
        """Geometric grid from delta_max down to delta_min, strictly decreasing."""
        decades = np.log10(self.delta_max / self.delta_min)
        n = int(round(decades * self.points_per_decade)) + 1
        n = max(n, 2)
        return np.geomspace(self.delta_max, self.delta_min, n)

    def scale_for(self, delta):
        """Inclusion scale s(delta) under the coupling rule."""
        return scale_for_delta(delta, self.coupling_c, self.dim)

    def problem_at(self, delta):
        """TransmissionProblem at one grid point."""
        return TransmissionProblem(
            dim=self.dim,
            geometry=self.geometry,
            s=self.scale_for(delta),
            delta=delta,
            eps_c=self.eps_c,
            omega0=self.omega0,
            a=self.a,
            z=self.z,
            eps_m=self.eps_m,
        )


@dataclass(frozen=True)
class SweepRow:
    """One (delta, solver) record; NaN energy marks a failed point."""

    delta: float
    s: float
    omega: float
    energy_norm: float
    phi0_hat_abs: float
    a_n_abs: float
    solver: str
    residual: float
    wall_time_ms: float


@dataclass(frozen=True)
class SweepResult:
    """
    Sweep outcome: all rows in grid order (delta descending, direct
    before spectral at each point), the fitted slope of
    log(energy_norm) against log(delta) with its 95% interval (None
    when too few valid rows), the invalid-row fraction, and the
    verdict: 'resonant' when the slope sits in [-1.15, -0.85],
    'bounded' when max/min energy < 2 over the valid rows, otherwise
    'inconclusive'.
    """

    config: SweepConfig
    rows: tuple
    slope: float
    slope_interval: tuple
    invalid_fraction: float
    verdict: str
    csv_path: str


# -------------------------------------------------------- sweep driver


def _resonant_cluster(spectrum, eps_eff):
    """
    Mode slots of the cluster (np_spectrum.cluster_ids) of the slot whose
    eigenvalue is closest to the plasmon value lambda(eps_eff). The
    equilibrium slot never resonates and is excluded.
    """
    lam = spectrum.lambdas
    ids = cluster_ids(lam)
    nearest = 1 + int(np.argmin(np.abs(lam[1:] - plasmon_lambda(eps_eff))))
    return (1 + np.flatnonzero(ids[1:] == ids[nearest])).tolist()


# the errors that fail a row rather than the sweep
_ROW_ERRORS = (ValueError, RuntimeError, np.linalg.LinAlgError)


def _failed_row(problem, solver_name, a_n_abs=np.nan):
    return SweepRow(problem.delta, problem.s, problem.omega, np.nan, np.nan,
                    a_n_abs, solver_name, np.nan, 0.0)


def _start_operators(pool, problem, solvers):
    """
    Futures of a 2D point's (S^{k_c}, K^{k_c}*) and, when solvers has a
    direct row, (S^omega, K^omega*) (else None), submitted in that order.
    """
    def start(k):
        return (pool.submit(assemble_S_omega, problem.geometry, k),
                pool.submit(assemble_Kstar_omega, problem.geometry, k))
    return start(problem.kc), start(problem.omega) if "direct" in solvers else None


def _operators(geometry, k, futures, terms=None):
    """(S^k, K^k*): the results of futures when given, else built here."""
    if futures is None:
        return helmholtz_operators(geometry, k, terms)
    return tuple(f.result() for f in futures)


def solve_point(problem, spectrum, solvers, operators=None):
    """
    The rows of one transmission problem, one per solver named in
    solvers ("direct", "spectral"), in that order; spectrum is the NP
    spectrum of its geometry. a_n_abs is the norm of the dipole's
    couplings over the resonant cluster, sqrt(sum |a_n|^2), which no
    orthonormal change of basis inside the cluster moves. Returns
    (rows, errors): per row the exception that failed it, its
    traceback dropped so that it keeps none of the point's matrices
    alive, or None. A failed row has NaN cells; an error before the
    solves fails every row, a_n_abs included. operators is what
    _start_operators returned for this problem, or None to assemble
    here; either way a k_c whose operators fail fails every row, an
    omega only the direct row. A sphere point sums three Bessel series:
    the one at omega R once (omega_terms), which its traces and its
    operators at omega share, the traces' own at omega z0, and its
    operators' at k_c R. The coupling reads the traces.
    """
    geometry, kc, om = problem.geometry, problem.kc, problem.omega
    kc_futures, om_futures = operators or (None, None)
    try:
        at_omega = omega_terms(problem)
        f, g = dipole_traces(problem, at_omega)
        cluster = _resonant_cluster(spectrum, problem.eps_eff)
        a_n, _ = coupling_an(problem.z, problem.a, cluster, spectrum, om, (f, g))
        # Python's abs (numpy's array abs can differ in the last bit), so
        # that a cluster with one nonzero coupling reports its |a_n| exactly
        a_n_abs = math.hypot(*(abs(complex(an)) for an in a_n))
        kernels = InteriorKernels(*_operators(geometry, kc, kc_futures))
    except _ROW_ERRORS as exc:
        return ([_failed_row(problem, name) for name in solvers],
                [exc.with_traceback(None)] * len(solvers))

    rows, errors = [], []
    for name in solvers:
        t0 = time.perf_counter()
        try:
            if name == "direct":
                sol = solve_direct(problem, operators=(
                    kernels.s, kernels.kstar,
                    *_operators(geometry, om, om_futures, at_omega)), traces=(f, g))
            else:
                sol = solve_spectral(coeffs_check(f, spectrum), coeffs_hat(g, spectrum),
                                     problem.eps_eff, problem.delta_eff, om, spectrum)
            energy = gradient_energy(sol.phi, kernels)
            if not np.isfinite(energy) or energy <= 0:
                raise RuntimeError(f"non-physical energy {energy!r}")
            phi0 = abs(coeffs_hat(sol.phi, spectrum)[0])
            wall = (time.perf_counter() - t0) * 1000.0
            rows.append(SweepRow(problem.delta, problem.s, om, float(np.sqrt(energy)),
                                 float(phi0), float(a_n_abs), name,
                                 float(sol.residual), wall))
            errors.append(None)
        except _ROW_ERRORS as exc:
            rows.append(_failed_row(problem, name, a_n_abs=a_n_abs))
            errors.append(exc.with_traceback(None))
    return rows, errors


def _row_valid(row):
    return (np.isfinite(row.energy_norm) and row.energy_norm > 0
            and np.isfinite(row.residual) and row.residual <= _FIT_RESIDUAL_TOL)


def _format_cell(x):
    return repr(float(x))


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([
                _format_cell(r.delta),
                _format_cell(r.s),
                _format_cell(r.omega),
                _format_cell(r.energy_norm),
                _format_cell(r.phi0_hat_abs),
                _format_cell(r.a_n_abs),
                r.solver,
                _format_cell(r.residual),
                f"{r.wall_time_ms:.3f}",
            ])


def _solve_ahead(problems, spectrum, solvers):
    """
    Rows of each problem in order, with a pool of two threads building
    the Helmholtz operators one point ahead: the tasks of point i+1 are
    submitted before point i is solved, so the FIFO pool finishes point
    i first and then builds point i+1 beside point i's LU, energies and
    spectral row. An exception that escapes a point cancels the queued
    look-ahead and drops every future before it propagates; the pool is
    shut down, its running tasks finished, before this returns.
    """
    rows = []
    with ThreadPoolExecutor(2) as pool:
        started = [_start_operators(pool, problems[0], solvers)]
        try:
            for i, problem in enumerate(problems):
                if i + 1 < len(problems):
                    started.append(_start_operators(pool, problems[i + 1], solvers))
                rows.append(solve_point(problem, spectrum, solvers, started.pop(0))[0])
        except BaseException:
            started.clear()
            pool.shutdown(cancel_futures=True)
            raise
    return rows


def run_sweep(config):
    """
    Execute the sweep, write the CSV, fit the blow-up rate, classify.

    Points run in grid order. A 2D sweep builds its points' S^k and K^k*
    on one pool of two threads for the whole sweep, one point ahead
    (_solve_ahead), whatever config.workers is and however many CPUs the
    process has; the operators are those solve_point builds on its own,
    bit for bit. A sphere point's operators are diagonals, so a sphere
    sweep runs its points one after another on the calling thread.
    The slope is fitted over the valid rows of one solver (direct when
    available, else spectral) so mixed direct/spectral sweeps do not
    double-count grid points. More than 30% invalid rows forces the
    'inconclusive' verdict.
    """
    solvers = ("direct", "spectral") if config.solver == "both" else (config.solver,)
    spectrum = spectrum_of(config.geometry)
    problems = [config.problem_at(float(d)) for d in config.delta_grid()]
    if config.dim == 2:
        # a boundary too coarse for its interior quadrature is left to
        # fail each point's rows with this error
        with contextlib.suppress(ValueError):
            config.geometry.interior
        per_point = _solve_ahead(problems, spectrum, solvers)
    else:
        per_point = [solve_point(p, spectrum, solvers)[0] for p in problems]
    rows = tuple(r for point in per_point for r in point)
    _write_csv(config.csv_path, rows)

    fit_solver = "direct" if config.solver in ("direct", "both") else "spectral"
    fit_rows = [r for r in rows if r.solver == fit_solver and _row_valid(r)]
    n_valid = sum(_row_valid(r) for r in rows)
    invalid_fraction = 1.0 - n_valid / len(rows)

    slope = None
    interval = None
    try:
        slope, interval = fit_blowup_rate([(r.delta, r.energy_norm) for r in fit_rows])
    except ValueError:
        pass

    if invalid_fraction > _MAX_INVALID_FRACTION:
        verdict = "inconclusive"
    elif slope is not None and _RESONANT_WINDOW[0] <= slope <= _RESONANT_WINDOW[1]:
        verdict = "resonant"
    else:
        energies = [r.energy_norm for r in fit_rows]
        if energies and max(energies) / min(energies) < _BOUNDED_RATIO:
            verdict = "bounded"
        else:
            verdict = "inconclusive"
    return SweepResult(config=config, rows=rows, slope=slope,
                       slope_interval=interval,
                       invalid_fraction=float(invalid_fraction),
                       verdict=verdict, csv_path=config.csv_path)


def fit_blowup_rate(points):
    """
    OLS fit of log(energy_norm) against log(delta).

    points are (delta, energy_norm) pairs; pairs with an entry that is
    not finite and positive are dropped. Needs at least 5 usable points
    spanning at least two decades of delta, else ValueError. Returns
    (slope, (lo, hi)) where the interval is the 95% Student-t band from
    the residual variance; an exact power law therefore returns a
    zero-width interval.
    """
    pts = [(float(d), float(e)) for d, e in points
           if np.isfinite(d) and d > 0 and np.isfinite(e) and e > 0]
    if len(pts) < _MIN_FIT_ROWS:
        raise ValueError(f"need at least {_MIN_FIT_ROWS} valid rows, got {len(pts)}")
    d = np.array([p[0] for p in pts])
    e = np.array([p[1] for p in pts])
    span = np.log10(d.max() / d.min())
    if span < _MIN_FIT_DECADES * (1.0 - 1e-12):
        raise ValueError(f"delta grid spans {span:.2f} decades, need {_MIN_FIT_DECADES}")
    x = np.log(d)
    y = np.log(e)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    rss = float(np.sum((y - (intercept + slope * x)) ** 2))
    dof = len(pts) - 2
    se = np.sqrt(max(rss, 0.0) / dof / sxx)
    # stdtrit(dof, p) is the routine behind scipy.stats.t.ppf(p, dof)
    half = float(stdtrit(dof, 0.975) * se)
    return slope, (slope - half, slope + half)
