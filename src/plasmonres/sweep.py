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

Rows are assembled in grid order regardless of worker scheduling, and
every numeric cell is written with shortest round-trip formatting, so
a sweep writes byte-identical CSV on repeated runs apart from the
wall_time_ms column.
"""

import contextlib
import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .layer_ops import InteriorKernels, assemble_S_omega, assemble_Kstar_omega, \
    helmholtz_tables, sphere_operators
from .np_spectrum import spectrum_of, coeffs_hat, coeffs_check
from .transmission import TransmissionProblem, plasmon_lambda, dipole_traces, \
    solve_direct, solve_spectral_2d, solve_spectral_3d, gradient_energy, \
    coupling_an

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
# eigenvalues within this distance of the closest one form the resonant cluster
_CLUSTER_TOL = 1e-6
# degenerate clusters are truncated to this many modes for the a_n column
_CLUSTER_CAP = 12
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
    unique there and reached to 1e-12 relative.
    """
    if delta <= 0 or coupling_c <= 0:
        raise ValueError("delta and coupling_c must be positive")
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

    geometry is a NodeSet (dim 2) or an (L, radius) pair (dim 3),
    exactly as TransmissionProblem takes it. The grid runs from
    delta_max down to delta_min geometrically with points_per_decade
    points per factor of 10. coupling_c must keep the scale in the
    s << delta regime, so it is capped at 0.1. plot_path is carried
    for front ends that render the CSV; run_sweep itself only writes
    the CSV.
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
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}")
        if not 0 < self.coupling_c <= 0.1:
            raise ValueError("coupling_c must lie in (0, 0.1]")
        if not 0 < self.delta_min < self.delta_max:
            raise ValueError("need 0 < delta_min < delta_max")
        if int(self.points_per_decade) < 1:
            raise ValueError("points_per_decade must be at least 1")
        if int(self.workers) < 1:
            raise ValueError("workers must be at least 1")
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        # building the extreme problems validates geometry, dipole
        # placement, and the omega <= cap constraint over the whole grid
        grid = self.delta_grid()
        self.problem_at(float(grid[0]))
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


@dataclass(frozen=True)
class _SweepContext:
    """
    Static per-sweep data shared read-only across workers. In 2D the
    node set also carries its wavenumber-free kernel geometry and
    interior quadrature, built here before any worker starts. tables
    is the executor that evaluates the Bessel/Hankel tables of a 2D
    point's Helmholtz matrices (layer_ops.helmholtz_tables) in a serial
    2D sweep with a second CPU, else None; run_sweep owns and closes it.
    """

    spectrum: object
    cluster: tuple
    tables: object


def _cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _build_context(config, tables):
    spectrum = spectrum_of(config.geometry)
    if config.dim == 2:
        # a boundary too coarse for its interior quadrature is left to
        # fail each point's rows with this error
        with contextlib.suppress(ValueError):
            config.geometry.interior
    cluster = _resonant_cluster(spectrum, config.eps_c / config.eps_m)
    return _SweepContext(spectrum=spectrum, cluster=cluster, tables=tables)


def _resonant_cluster(spectrum, eps_eff):
    """
    Mode slots whose eigenvalue is closest to the plasmon value
    lambda(eps_eff), together with everything degenerate with it. The
    equilibrium slot never resonates and is excluded. Clusters larger
    than _CLUSTER_CAP (fully degenerate boundaries) are truncated.
    """
    lam = spectrum.lambdas
    if lam.size < 2:
        return ()
    target = plasmon_lambda(eps_eff)
    gaps = np.abs(lam[1:] - target)
    lam_star = lam[1 + int(np.argmin(gaps))]
    slots = [i for i in range(1, lam.size) if abs(lam[i] - lam_star) <= _CLUSTER_TOL]
    return tuple(slots[:_CLUSTER_CAP])


def _failed_row(delta, s, om, solver_name, a_n_abs=np.nan):
    return SweepRow(delta, s, om, np.nan, np.nan, a_n_abs,
                    solver_name, np.nan, 0.0)


def _start_tables(ctx, nodes, k):
    """
    helmholtz_tables(nodes, k) on ctx.tables; (None, None) without an
    executor, so that the assemblers evaluate the tables themselves.
    """
    if ctx.tables is None:
        return None, None
    return helmholtz_tables(nodes, k, ctx.tables.submit)


def _ready(futures):
    """The tables behind a pair of futures, or None for no pair."""
    return None if futures is None else tuple(f.result() for f in futures)


def _sweep_point(config, ctx, delta):
    """
    All rows for one grid point, direct before spectral. The k_c tables,
    and the omega tables of a direct row, start first; a wavenumber that
    fails its check starts none and fails at its assembly, as in serial.
    """
    s = config.scale_for(delta)
    selected = ("direct", "spectral") if config.solver == "both" else (config.solver,)
    problem = config.problem_at(delta)
    om = problem.omega
    kc = problem.kc
    spectrum = ctx.spectrum
    try:
        kc_tables = _start_tables(ctx, config.geometry, kc)
        om_tables = None, None
        if "direct" in selected:
            with contextlib.suppress(ValueError):
                om_tables = _start_tables(ctx, config.geometry, om)
        f, g = dipole_traces(problem)
        a_n_abs = 0.0
        for slot in ctx.cluster:
            an, _ = coupling_an(config.z, config.a, slot, spectrum, om)
            a_n_abs = max(a_n_abs, abs(an))
        if config.dim == 2:
            s_in = assemble_S_omega(config.geometry, kc, _ready(kc_tables[0]))
            k_in = assemble_Kstar_omega(config.geometry, kc, _ready(kc_tables[1]))
            energy_ops = (s_in, k_in, InteriorKernels(config.geometry, kc))
        else:
            L, radius = config.geometry
            _, _, s_in, k_in = sphere_operators(int(L), float(radius), kc)
            energy_ops = (spectrum, s_in, k_in)
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        return [_failed_row(delta, s, om, name) for name in selected]

    rows = []
    for name in selected:
        t0 = time.perf_counter()
        try:
            if name == "direct":
                if config.dim == 2:
                    s_out = assemble_S_omega(config.geometry, om, _ready(om_tables[0]))
                    k_out = assemble_Kstar_omega(config.geometry, om,
                                                 _ready(om_tables[1]))
                else:
                    _, _, s_out, k_out = sphere_operators(int(L), float(radius), om)
                sol = solve_direct(problem, operators=(s_in, k_in, s_out, k_out))
            else:
                fcheck = coeffs_check(f, spectrum)
                ghat = coeffs_hat(g, spectrum)
                if config.dim == 2:
                    sol = solve_spectral_2d(fcheck, ghat, problem.eps_eff,
                                            problem.delta_eff, om, spectrum)
                else:
                    sol = solve_spectral_3d(fcheck, ghat, problem.eps_eff,
                                            problem.delta_eff, spectrum)
            energy = gradient_energy(sol.phi, kc, energy_ops)
            if not np.isfinite(energy) or energy <= 0:
                raise RuntimeError(f"non-physical energy {energy!r}")
            phi0 = abs(coeffs_hat(sol.phi, spectrum)[0])
            wall = (time.perf_counter() - t0) * 1000.0
            rows.append(SweepRow(delta, s, om, float(np.sqrt(energy)),
                                 float(phi0), float(a_n_abs), name,
                                 float(sol.residual), wall))
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            rows.append(_failed_row(delta, s, om, name, a_n_abs=a_n_abs))
    return rows


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


def run_sweep(config):
    """
    Execute the sweep, write the CSV, fit the blow-up rate, classify.

    Points run on a worker pool of config.workers threads; results are
    assembled in grid order so the output does not depend on
    scheduling. A 2D sweep with workers=1 on a process with at least
    two CPUs evaluates its points' Bessel/Hankel tables on one executor
    of two threads for the whole sweep, shut down, its work finished,
    before this returns; the tables are bit-identical to those of the
    serial path. That is the one configuration measured; with more
    points in flight the table threads would run beside other points'
    LU, so those sweeps, and the sphere, keep one thread per point.
    The slope is fitted over the valid rows of one solver (direct when
    available, else spectral) so mixed direct/spectral sweeps do not
    double-count grid points. More than 30% invalid rows forces the
    'inconclusive' verdict.
    """
    grid = config.delta_grid()
    workers = int(config.workers)
    pooled = config.dim == 2 and workers == 1 and _cores() >= 2
    with ThreadPoolExecutor(2) if pooled else contextlib.nullcontext() as tables:
        ctx = _build_context(config, tables)
        if workers == 1:
            per_point = [_sweep_point(config, ctx, float(d)) for d in grid]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                per_point = list(pool.map(
                    lambda d: _sweep_point(config, ctx, float(d)), grid))
    rows = tuple(r for point in per_point for r in point)
    _write_csv(config.csv_path, rows)

    fit_solver = "direct" if config.solver in ("direct", "both") else "spectral"
    fit_rows = [r for r in rows if r.solver == fit_solver and _row_valid(r)]
    n_valid = sum(_row_valid(r) for r in rows)
    invalid_fraction = 1.0 - n_valid / len(rows)

    slope = None
    interval = None
    try:
        slope, interval = fit_blowup_rate(fit_rows)
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


def fit_blowup_rate(rows):
    """
    OLS fit of log(energy_norm) against log(delta).

    rows are SweepRow records or bare (delta, energy_norm) pairs; rows
    with non-finite entries or residual above 1e-8 are dropped. Needs
    at least 5 usable points spanning at least two decades of delta,
    else ValueError. Returns (slope, (lo, hi)) where the interval is
    the 95% Student-t band from the residual variance; an exact power
    law therefore returns a zero-width interval.
    """
    pts = []
    for r in rows:
        if hasattr(r, "delta"):
            d, e, resid = r.delta, r.energy_norm, r.residual
        else:
            d, e = r
            resid = 0.0
        if (np.isfinite(d) and d > 0 and np.isfinite(e) and e > 0
                and np.isfinite(resid) and resid <= _FIT_RESIDUAL_TOL):
            pts.append((float(d), float(e)))
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
