"""
Sweep harness and command line: rate fitting, the coupling scale rule,
verdict logic, CSV determinism, config loading, plotting, and process
exit codes.
"""

import csv
import dataclasses
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from xml.dom import minidom
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from plasmonres.sweep import (
    SweepConfig,
    SweepResult,
    CSV_COLUMNS,
    run_sweep,
    fit_blowup_rate,
    scale_for_delta,
)
from plasmonres import sweep as sweep_module
from plasmonres import cli as cli_module
from plasmonres import geometry as geometry_module
from plasmonres import layer_ops
from plasmonres import specfun as specfun_module
from plasmonres import transmission as transmission_module
from plasmonres.geometry import MIN_SPHERE_DEGREE, Sphere, make_curve, quadrature_nodes
from plasmonres.layer_ops import HelmholtzOperators
from plasmonres.cli import (
    main,
    validate,
    emit_plot,
    load_sweep_config,
    ConfigError,
    EXIT_OK,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_VALIDATION,
)
from plasmonres.np_spectrum import sphere_spectrum, spectrum_of
from plasmonres.specfun import OMEGA_MAX
from plasmonres.transmission import plasmon_epsilon


def _deltas(lo, hi, n):
    return np.geomspace(hi, lo, n)


def test_fit_exact_inverse_law():
    rows = [(d, 7.0 / d) for d in _deltas(1e-5, 1e-2, 13)]
    slope, (lo, hi) = fit_blowup_rate(rows)
    assert abs(slope + 1.0) < 1e-12
    assert hi - lo < 1e-10


def test_fit_flat_and_modulated():
    rows = [(d, 4.2) for d in _deltas(1e-5, 1e-2, 13)]
    slope, _ = fit_blowup_rate(rows)
    assert abs(slope) < 1e-12
    rows = [(d, (1.0 + 0.1 * np.sin(np.log(d))) / d)
            for d in _deltas(1e-5, 1e-2, 13)]
    slope, (lo, hi) = fit_blowup_rate(rows)
    assert lo < slope < hi
    assert -1.1 < slope < -0.9


def test_fit_interval_uses_the_student_t_quantile():
    # the half-width is t_{0.975, dof} * se with the quantile of
    # scipy.stats, bit for bit, although the package does not import it
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    for dof in range(3, 61):
        d = _deltas(1e-5, 1e-2, dof + 2)
        e = (1.0 + 0.05 * rng.standard_normal(d.size)) / d
        slope, interval = fit_blowup_rate(list(zip(d, e)))
        x, y = np.log(d), np.log(e)
        xc = x - x.mean()
        sxx = float(xc @ xc)
        intercept = float(y.mean() - slope * x.mean())
        rss = float(np.sum((y - (intercept + slope * x)) ** 2))
        se = np.sqrt(rss / dof / sxx)
        half = float(stats.t.ppf(0.975, dof) * se)
        assert interval == (slope - half, slope + half)


def test_fit_guards():
    with pytest.raises(ValueError):
        fit_blowup_rate([(d, 1.0 / d) for d in _deltas(1e-3, 1e-2, 4)])
    with pytest.raises(ValueError):
        fit_blowup_rate([(d, 1.0 / d) for d in _deltas(2e-3, 1e-2, 8)])


def test_scale_rule():
    # 3D: s = c delta; 2D: s^2 |ln s| = c delta solved to high accuracy
    assert scale_for_delta(1e-4, 0.01, 3) == pytest.approx(1e-6, rel=1e-15)
    for delta in (1e-2, 1e-4, 1e-5):
        s = scale_for_delta(delta, 0.01, 2)
        assert abs(s * s * abs(np.log(s)) - 0.01 * delta) < 1e-12 * 0.01 * delta
    with pytest.raises(ValueError):
        scale_for_delta(10.0, 0.05, 2)  # target scale leaves s << 1
    with pytest.raises(ValueError):
        scale_for_delta(-1e-3, 0.01, 2)
    # a non-finite input once came back as a nan or inf scale
    for delta, c, dim in ((np.nan, 0.01, 2), (np.nan, 0.01, 3), (1e-3, np.nan, 2),
                          (np.inf, 0.01, 3), (1e-3, np.inf, 3), (-np.inf, 0.01, 2)):
        with pytest.raises(ValueError, match="finite"):
            scale_for_delta(delta, c, dim)
    # only 2D and 3D have a rule; dim 4 once returned the 2D root
    for dim in (1, 4):
        with pytest.raises(ValueError, match="dim must be 2 or 3"):
            scale_for_delta(1e-3, 0.01, dim)


def _sphere_config(tmp_path, **overrides):
    base = dict(dim=3, geometry=(8, 1.0), eps_c=-2.0, omega0=1.0,
                a=(0.0, 0.0, 1.0), z=(0.0, 0.0, 2.0),
                csv_path=str(tmp_path / "sweep.csv"),
                delta_max=1e-2, delta_min=1e-4, points_per_decade=3)
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_config_validation(tmp_path):
    _sphere_config(tmp_path)
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, coupling_c=0.5)
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, solver="magic")
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, delta_max=1e-5, delta_min=1e-2)
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, points_per_decade=0)
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, workers=0)
    with pytest.raises(ValueError):
        _sphere_config(tmp_path, omega0=1e4)  # omega cap at the top of the grid
    # an int csv_path is a file descriptor to open(): refused before
    # run_sweep could write the CSV into it and close it
    with open(tmp_path / "scratch.txt", "w") as fh:
        with pytest.raises(ValueError, match="^csv_path must be a non-empty string"):
            _sphere_config(tmp_path, csv_path=fh.fileno())
        assert os.fstat(fh.fileno()).st_size == 0


@pytest.mark.parametrize("degree", [1, MIN_SPHERE_DEGREE - 1])
def test_sphere_degree_below_minimum_fails_validation(tmp_path, capsys, degree):
    # a degree that the sphere's spectrum and operators refuse fails when
    # the config is built, not inside run_sweep; the minimum itself passes
    _sphere_config(tmp_path, geometry=(MIN_SPHERE_DEGREE, 1.0))
    message = f"L >= {MIN_SPHERE_DEGREE}"
    with pytest.raises(ValueError, match=message):
        _sphere_config(tmp_path, geometry=(degree, 1.0))
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": degree},
              "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
              "csv_path": str(tmp_path / "x.csv")}
    with pytest.raises(ConfigError, match=message):
        load_sweep_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_delta_grid_shape(tmp_path):
    cfg = _sphere_config(tmp_path)
    grid = cfg.delta_grid()
    assert grid[0] == pytest.approx(1e-2, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(np.diff(grid) < 0)
    assert len(grid) == 7


def test_sweep_3d_resonant_csv_contract(tmp_path):
    cfg = _sphere_config(tmp_path, solver="both")
    result = run_sweep(cfg)
    assert result.verdict == "resonant"
    assert -1.15 < result.slope < -0.85
    assert result.invalid_fraction == 0.0
    with open(cfg.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    body = rows[1:]
    assert len(body) == 2 * 7
    deltas = [float(r[0]) for r in body]
    assert deltas == sorted(deltas, reverse=True)
    for i in range(0, len(body), 2):
        assert body[i][6] == "direct" and body[i + 1][6] == "spectral"
        assert body[i][0] == body[i + 1][0]
    # energies actually blow up across the grid
    energies = [float(r[3]) for r in body if r[6] == "direct"]
    assert energies[-1] > 50.0 * energies[0]


def _masked_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("wall_time_ms")
    return [tuple(v for j, v in enumerate(r) if j != idx) for r in rows]


def test_sweep_determinism_across_workers(tmp_path):
    cfg1 = _sphere_config(tmp_path, csv_path=str(tmp_path / "a.csv"))
    cfg2 = _sphere_config(tmp_path, csv_path=str(tmp_path / "b.csv"), workers=2)
    run_sweep(cfg1)
    run_sweep(cfg2)
    assert _masked_csv(tmp_path / "a.csv") == _masked_csv(tmp_path / "b.csv")


def test_sweep_3d_bounded_off_resonance(tmp_path):
    cfg = _sphere_config(tmp_path, eps_c=-5.0, solver="spectral")
    result = run_sweep(cfg)
    assert result.verdict == "bounded"
    energies = [r.energy_norm for r in result.rows]
    assert max(energies) / min(energies) < 2.0


def test_sweep_2d_verdict_stable_under_refinement(tmp_path):
    verdicts, slopes = [], []
    for n in (96, 192):
        nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), n)
        # the cosine-sector slot carries the eps = -2 resonance, so the
        # dipole moment must have even parity across the long axis
        cfg = SweepConfig(dim=2, geometry=nodes, eps_c=-2.0, omega0=1.0,
                          a=(1.0, 0.0), z=(3.0, 0.0),
                          csv_path=str(tmp_path / f"e{n}.csv"),
                          delta_max=1e-2, delta_min=1e-4,
                          points_per_decade=3, solver="spectral")
        result = run_sweep(cfg)
        verdicts.append(result.verdict)
        slopes.append(result.slope)
    assert verdicts == ["resonant", "resonant"]
    assert abs(slopes[0] - slopes[1]) < 1e-3


def test_sweep_invalid_fraction_forces_inconclusive(tmp_path, monkeypatch):
    original = sweep_module.solve_point

    def flaky(problem, spectrum, solvers):
        if problem.delta < 3e-4:
            error = RuntimeError("synthetic failure")
            return ([sweep_module._failed_row(problem, name) for name in solvers],
                    [error] * len(solvers))
        return original(problem, spectrum, solvers)

    monkeypatch.setattr(sweep_module, "solve_point", flaky)
    cfg = _sphere_config(tmp_path, delta_min=1e-5, points_per_decade=4)
    result = run_sweep(cfg)
    assert result.invalid_fraction > 0.3
    assert result.verdict == "inconclusive"


def _synthetic_sweep(tmp_path, monkeypatch, slope, failing=(), **overrides):
    """
    run_sweep on a sphere config whose points report energy_norm
    delta**slope on every row, except the points with grid index in
    failing, whose rows fail.
    """
    cfg = _sphere_config(tmp_path, **overrides)
    grid = [float(d) for d in cfg.delta_grid()]

    def synthetic(problem, spectrum, solvers):
        if grid.index(problem.delta) in failing:
            rows = [sweep_module._failed_row(problem, name) for name in solvers]
        else:
            rows = [sweep_module.SweepRow(problem.delta, problem.s, problem.omega,
                                          problem.delta ** slope, 1.0, 1.0, name, 0.0, 0.0)
                    for name in solvers]
        return rows, [None] * len(solvers)

    monkeypatch.setattr(sweep_module, "solve_point", synthetic)
    return run_sweep(cfg)


@pytest.mark.parametrize("slope, verdict", [(-1.151, "inconclusive"), (-1.149, "resonant"),
                                            (-0.851, "resonant"), (-0.849, "inconclusive")])
def test_verdict_at_the_edges_of_the_resonant_window(tmp_path, monkeypatch, slope, verdict):
    # the window is [-1.15, -0.85]; an exact power law fits its own slope
    result = _synthetic_sweep(tmp_path, monkeypatch, slope, delta_min=1e-5)
    assert result.slope == pytest.approx(slope, abs=1e-12)
    assert result.verdict == verdict


@pytest.mark.parametrize("points_per_decade, failing, verdict", [
    (3, (3, 4, 5), "resonant"),             # 3 of 10 rows: exactly 30%
    (4, (3, 4, 5, 6), "inconclusive")])     # 4 of 13 rows: just above
def test_invalid_fraction_at_its_bound(tmp_path, monkeypatch, points_per_decade, failing,
                                       verdict):
    # more than 30% invalid rows forces 'inconclusive'; 30% itself does not
    result = _synthetic_sweep(tmp_path, monkeypatch, -1.0, failing, solver="spectral",
                              delta_min=1e-5, points_per_decade=points_per_decade)
    assert result.invalid_fraction == len(failing) / len(result.rows)
    assert result.verdict == verdict


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sphere_slope_independent_of_degree(tmp_path):
    # the 3D blow-up rate and energies must not depend on the truncation
    # degree, on the full 1e-2 -> 1e-5 grid: at L = 100 the small-argument
    # Bessel ratios reach degrees whose raw powers of k_c r underflow, and
    # from degree 150 on (2n+1)!! overflows to inf, which must not warn
    results = [run_sweep(_sphere_config(
        tmp_path, geometry=(L, 1.0), delta_min=1e-5, points_per_decade=4,
        csv_path=str(tmp_path / f"L{L}.csv"))) for L in (40, 100, 200)]
    first = results[0]
    for result in results:
        assert result.verdict == "resonant"
        assert result.invalid_fraction == 0.0
        assert len(result.rows) == 26
        assert abs(result.slope - first.slope) <= 1e-9
        for i in (0, -1):
            ref = first.rows[i].energy_norm
            assert abs(result.rows[i].energy_norm - ref) <= 1e-12 * ref


def test_resonant_cluster_triple_on_sphere():
    sph = sphere_spectrum(Sphere(8, 1.0))
    cluster = sweep_module._resonant_cluster(sph, -2.0)
    assert len(cluster) == 3
    assert all(abs(sph.lambdas[i] - 1.0 / 6.0) < 1e-12 for i in cluster)


@pytest.mark.parametrize("degree", [11, 12])
def test_sphere_a_n_abs_at_high_degree_resonance(degree):
    # at L = 40 the contrast resonant at degree n has a cluster of 2n + 1
    # slots; an axial dipole reaches only its pole slot n^2 + n, whose
    # coupling a_n_abs must report
    spectrum = sphere_spectrum(Sphere(40, 1.0))
    eps = transmission_module.plasmon_epsilon(1.0 / (2.0 * (2 * degree + 1)))
    problem = transmission_module.TransmissionProblem(
        dim=3, geometry=(40, 1.0), s=scale_for_delta(1e-2, 0.01, 3), delta=1e-2,
        eps_c=eps, omega0=1.0, a=(0.0, 0.0, 1.0), z=(0.0, 0.0, 2.0))
    rows, _ = sweep_module.solve_point(problem, spectrum, ("spectral",))
    (a_pole,), _ = transmission_module.coupling_an(problem, [degree * degree + degree],
                                                   spectrum)
    assert abs(a_pole) > 1e-4
    assert rows[0].a_n_abs == abs(a_pole)


def test_a_n_abs_invariant_under_rotation_of_a_degenerate_cluster():
    # every n >= 1 mode of the circle has lambda = 0, so eigh may return
    # any orthonormal basis of that space; a_n_abs, the norm of the
    # couplings over the cluster, must not depend on which
    nodes = quadrature_nodes(make_curve("circle", radius=1.5), 128)
    spectrum = spectrum_of(nodes)
    cluster = sweep_module._resonant_cluster(spectrum, -2.0)
    assert cluster == list(range(1, 128))
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((127, 127)))
    densities, stilde = spectrum.densities.copy(), spectrum.stilde_traces.copy()
    densities[:, cluster] = densities[:, cluster] @ q
    stilde[:, cluster] = stilde[:, cluster] @ q
    rotated = dataclasses.replace(spectrum, densities=densities, stilde_traces=stilde)
    problem = transmission_module.TransmissionProblem(
        dim=2, geometry=nodes, s=scale_for_delta(1e-2, 0.01, 2), delta=1e-2,
        eps_c=-2.0, omega0=1.0, a=(1.0, 0.0), z=(3.0, 0.0))
    (row,), _ = sweep_module.solve_point(problem, spectrum, ("spectral",))
    (row_q,), _ = sweep_module.solve_point(problem, rotated, ("spectral",))
    assert row.a_n_abs > 1e-2
    assert abs(row_q.a_n_abs - row.a_n_abs) <= 1e-12 * row.a_n_abs


@pytest.mark.parametrize("degree", [8, 40])
def test_sphere_sweep_sums_three_bessel_series_per_point(tmp_path, monkeypatch, degree):
    # each series is summed once per grid point: all degrees at omega z0
    # (the traces), omega R (shared by the traces and the operators at
    # omega) and k_c R (value and derivative). The energies' radial
    # integrals are closed forms of the k_c R terms, and the coupling is
    # a pairing of the traces, so no series runs over radii.
    calls = []
    series = specfun_module._sph_series

    def counting(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(specfun_module, "_sph_series", counting)
    cfg = _sphere_config(tmp_path, geometry=(degree, 1.0))
    result = run_sweep(cfg)
    assert result.invalid_fraction == 0.0
    assert len(calls) == 3 * len(cfg.delta_grid())
    assert all(np.ndim(z) == 0 for _, z in calls)


def test_sphere_sweep_builds_diagonals_once_per_point(tmp_path, monkeypatch):
    # one S^k/K^k* diagonal pair at k_c and one at omega per grid point,
    # shared by the direct solve and both energies, and one radial table
    # at k_c for both energies; no Gauss-Legendre rule is ever built
    wavenumbers, tables, rules = [], [], []
    original = layer_ops.sphere_operators
    table = layer_ops._sphere_radial_table
    leggauss = np.polynomial.legendre.leggauss

    def counting(sphere, k=0.0, *terms):
        wavenumbers.append(k)
        return original(sphere, k, *terms)

    def tabulating(sphere, k, *den):
        tables.append(k)
        return table(sphere, k, *den)

    def rule(*args):
        rules.append(args)
        return leggauss(*args)

    monkeypatch.setattr(layer_ops, "sphere_operators", counting)
    monkeypatch.setattr(layer_ops, "_sphere_radial_table", tabulating)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", rule)
    cfg = _sphere_config(tmp_path)
    result = run_sweep(cfg)
    grid = cfg.delta_grid()
    assert result.invalid_fraction == 0.0
    assert len(wavenumbers) == 2 * len(grid)
    for i, delta in enumerate(grid):
        problem = cfg.problem_at(float(delta))
        assert wavenumbers[2 * i:2 * i + 2] == [problem.kc, problem.omega]
    assert tables == [cfg.problem_at(float(d)).kc for d in grid]
    assert rules == []


def _ellipse_config(tmp_path, **overrides):
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 64)
    base = dict(dim=2, geometry=nodes, eps_c=-2.0, omega0=1.0,
                a=(1.0, 0.0), z=(3.0, 0.0), csv_path=str(tmp_path / "e.csv"),
                delta_max=1e-2, delta_min=1e-4, points_per_decade=2)
    base.update(overrides)
    return SweepConfig(**base)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(aspect=st.floats(min_value=1.1, max_value=2.0), mode=st.integers(1, 4))
def test_ellipse_resonates_at_every_plasmon_contrast(aspect, mode):
    # at eps_c = plasmon_epsilon(lambda_n) the energy blows up like
    # 1/delta: a 5-point sweep over delta = 1e-2..1e-4 reads resonant with
    # a slope within 5% of -1. The dipole on the major axis couples to the
    # mode through the moment of its parity: along x for the x-even modes
    # (lambda_n > 0), along y for the y-odd ones (lambda_n < 0), which an
    # x moment leaves bounded
    nodes = quadrature_nodes(make_curve("ellipse", a=aspect, b=1.0), 64)
    lam = spectrum_of(nodes).lambdas[mode]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = SweepConfig(dim=2, geometry=nodes, eps_c=plasmon_epsilon(lam), omega0=1.0,
                          a=(1.0, 0.0) if lam > 0 else (0.0, 1.0), z=(aspect + 1.0, 0.0),
                          csv_path=os.path.join(tmp, "e.csv"), delta_max=1e-2,
                          delta_min=1e-4, points_per_decade=2)
        assert len(cfg.delta_grid()) == 5
        result = run_sweep(cfg)
    assert result.verdict == "resonant"
    assert -1.05 <= result.slope <= -0.95


def test_repeated_sweeps_retain_no_operators(tmp_path, monkeypatch):
    # Two sweeps of one config in one process write identical cells,
    # and every operator and HelmholtzOperators pair a sweep builds is
    # garbage once it returns: no module-level state holds on to one.
    built = []

    def recording(*args, _original=sweep_module.helmholtz_operators):
        out = _original(*args)
        built.extend(weakref.ref(x) for x in (out, out.s, out.kstar))
        return out
    monkeypatch.setattr(sweep_module, "helmholtz_operators", recording)
    # the look-ahead pool of a 2D sweep calls the assemblers directly
    for name in ("assemble_S_omega", "assemble_Kstar_omega"):
        def recording_one(*args, _original=getattr(sweep_module, name)):
            out = _original(*args)
            built.append(weakref.ref(out))
            return out
        monkeypatch.setattr(sweep_module, name, recording_one)

    # and pairs their results
    def recording_pair(*args, _original=sweep_module.HelmholtzOperators):
        out = _original(*args)
        built.append(weakref.ref(out))
        return out
    monkeypatch.setattr(sweep_module, "HelmholtzOperators", recording_pair)
    for make in (_sphere_config, _ellipse_config):
        paths = [tmp_path / f"{make.__name__}-{i}.csv" for i in (1, 2)]
        for path in paths:
            run_sweep(make(tmp_path, csv_path=str(path)))
        assert _masked_csv(paths[0]) == _masked_csv(paths[1])
    gc.collect()
    assert len(built) > 0
    assert all(ref() is None for ref in built)
    modules = [m for n, m in sys.modules.items()
               if n == "plasmonres" or n.startswith("plasmonres.")]
    for module in modules:
        for value in vars(module).values():
            assert not isinstance(value, HelmholtzOperators)


@pytest.mark.parametrize("points_per_decade", (1, 4))
def test_2d_sweep_builds_interior_grids_once(tmp_path, monkeypatch,
                                             points_per_decade):
    # the coarse and fine grids are built once per sweep, with no warm-up:
    # point 0's coupling builds them on the sweep's thread after the pool
    # has started the first operators
    events = []
    original = geometry_module.interior_points
    start = sweep_module._start_operators

    def counting(*args, **kwargs):
        events.append(("grid", threading.current_thread()))
        return original(*args, **kwargs)

    def starting(*args):
        events.append(("start", threading.current_thread()))
        return start(*args)

    for module in (geometry_module, transmission_module):
        monkeypatch.setattr(module, "interior_points", counting)
    monkeypatch.setattr(sweep_module, "_start_operators", starting)
    cfg = _ellipse_config(tmp_path, points_per_decade=points_per_decade)
    assert "interior" not in vars(cfg.geometry)
    result = run_sweep(cfg)
    assert len(result.rows) == 2 * len(cfg.delta_grid())
    assert result.invalid_fraction == 0.0
    assert [name for name, _ in events[:4]] == ["start", "start", "grid", "grid"]
    assert [name for name, _ in events].count("grid") == 2
    assert {thread for _, thread in events} == {threading.main_thread()}


def test_2d_sweep_on_a_boundary_too_coarse_for_its_grids(tmp_path, monkeypatch):
    # a boundary whose interior quadrature cannot be built fails every row
    # of every point with the same ValueError: a failed build is not cached
    def no_points(*args, **kwargs):
        raise ValueError("no interior points at distance >= 1; buffer exceeds inradius")

    for module in (geometry_module, transmission_module):
        monkeypatch.setattr(module, "interior_points", no_points)
    errors = []
    original = sweep_module.solve_point

    def recording(*args):
        rows, errs = original(*args)
        errors.extend(errs)
        return rows, errs

    monkeypatch.setattr(sweep_module, "solve_point", recording)
    cfg = _ellipse_config(tmp_path)
    result = run_sweep(cfg)
    assert result.invalid_fraction == 1.0 and result.verdict == "inconclusive"
    assert len(errors) == len(result.rows) == 2 * len(cfg.delta_grid())
    assert all(isinstance(e, ValueError) and "buffer exceeds inradius" in str(e)
               for e in errors)
    assert "interior" not in vars(cfg.geometry)


def _record_interior_kernels(monkeypatch):
    """
    Record every off-boundary kernel a 2D sweep evaluates: 'series' for
    a gamma_helmholtz_series call, 'hankel' for a hankel1 call on a
    target-by-node array (the boundary tables take 1-D arguments).
    """
    builds = []
    series = layer_ops.gamma_helmholtz_series

    def counting_series(*args):
        builds.append("series")
        return series(*args)

    class CountingSpecial:
        def __getattr__(self, name):
            return getattr(special, name)

        def hankel1(self, order, z):
            if np.ndim(z) == 2:
                builds.append("hankel")
            return special.hankel1(order, z)

    monkeypatch.setattr(layer_ops, "gamma_helmholtz_series", counting_series)
    monkeypatch.setattr(layer_ops, "special", CountingSpecial())
    return builds


def _kite_hankel_config(tmp_path, **overrides):
    # omega 0.41-0.43: |k_c| r_max is above the series cut on both targets
    nodes = quadrature_nodes(make_curve("kite"), 256)
    base = dict(dim=2, geometry=nodes, eps_c=-3.0, omega0=100.0,
                a=(1.0, 0.0), z=(2.5, 0.0), csv_path=str(tmp_path / "k.csv"),
                delta_max=1e-2, delta_min=9e-3)
    base.update(overrides)
    return SweepConfig(**base)


@pytest.mark.parametrize("make, route", [(_ellipse_config, "series"),
                                         (_kite_hankel_config, "hankel")])
def test_2d_sweep_builds_interior_kernels_once_per_point(tmp_path, monkeypatch,
                                                          make, route):
    # the direct and spectral energies of a grid point share one k_c
    # kernel on the coarse grid and one on the collar edge
    cfg = make(tmp_path)
    quad = cfg.geometry.interior
    grid = cfg.delta_grid()
    for delta in grid:
        kr = abs(cfg.problem_at(float(delta)).kc) * np.array(
            [quad.coarse.r_max, quad.edge.r_max])
        assert np.all((kr > layer_ops._SERIES_KR_MAX) == (route == "hankel"))
    builds = _record_interior_kernels(monkeypatch)
    result = run_sweep(cfg)
    assert result.invalid_fraction == 0.0
    assert builds == [route] * (2 * len(grid))


def _run_watched(monkeypatch, cfg):
    """
    run_sweep on cfg. Returns the result and, per point, the operator
    futures the look-ahead pool handed to solve_point (None without a
    pool), and checks that no thread the sweep started outlives it,
    also when it raises.
    """
    executors = []
    with monkeypatch.context() as m:
        original = sweep_module.solve_point

        def recording(problem, spectrum, solvers, *rest):
            executors.append(rest[0] if rest else None)
            return original(problem, spectrum, solvers, *rest)

        m.setattr(sweep_module, "solve_point", recording)
        before = set(threading.enumerate())
        try:
            result = run_sweep(cfg)
        finally:
            assert set(threading.enumerate()) <= before
    return result, executors


@pytest.mark.parametrize("make", (_ellipse_config, _kite_hankel_config))
def test_pooled_and_serial_2d_sweeps_agree(tmp_path, monkeypatch, make):
    # a 2D sweep builds its operators, and so their Bessel/Hankel tables,
    # on the look-ahead pool's threads; solve_point on its own, the path
    # of `plasmonres solve`, builds them on the caller's thread. Every
    # cell but wall_time_ms is the same
    table = layer_ops._distance_table
    threads = []

    def tabulating(*args):
        threads.append(threading.current_thread())
        return table(*args)

    monkeypatch.setattr(layer_ops, "_distance_table", tabulating)
    cfg = make(tmp_path, csv_path=str(tmp_path / "pooled.csv"))
    result, executors = _run_watched(monkeypatch, cfg)
    assert result.invalid_fraction == 0.0
    points = len(cfg.delta_grid())
    assert len(threads) == 8 * points
    assert all(ex is not None for ex in executors)
    assert all(t is not threading.main_thread() for t in threads)

    threads.clear()
    spectrum = spectrum_of(cfg.geometry)
    rows = [row for d in cfg.delta_grid()
            for row in sweep_module.solve_point(cfg.problem_at(float(d)), spectrum,
                                                ("direct", "spectral"))[0]]
    assert len(threads) == 8 * points
    assert all(t is threading.main_thread() for t in threads)
    serial = tmp_path / "serial.csv"
    sweep_module._write_csv(str(serial), rows)
    assert _masked_csv(cfg.csv_path) == _masked_csv(serial)


@pytest.mark.parametrize("make, workers", [(_ellipse_config, 1), (_ellipse_config, 2),
                                           (_sphere_config, 1)])
def test_sweep_builds_dipole_traces_once_per_point(tmp_path, monkeypatch, make,
                                                   workers):
    # the direct solve, the spectral row and the coupling of a grid point
    # share one (F_z, d_nu F_z), on the look-ahead pool's path (2D,
    # whatever workers is) and without it (3D); a 2D point evaluates F_z
    # on its boundary nodes once, for the traces, and the coupling reads it
    # from them
    cfg = make(tmp_path, workers=workers)
    problems, on_nodes = [], []
    original = transmission_module.dipole_traces
    gradient = transmission_module.grad_gamma_helmholtz

    def counting(problem):
        problems.append(problem)
        return original(problem)

    def gradient_counting(y, k):
        if cfg.dim == 2 and np.array_equal(y, cfg.geometry.points - cfg.z):
            on_nodes.append(k)
        return gradient(y, k)

    monkeypatch.setattr(transmission_module, "dipole_traces", counting)
    monkeypatch.setattr(transmission_module, "grad_gamma_helmholtz", gradient_counting)
    result, _ = _run_watched(monkeypatch, cfg)
    assert result.invalid_fraction == 0.0
    assert [p.delta for p in problems] == [float(d) for d in cfg.delta_grid()]
    assert on_nodes == ([p.omega for p in problems] if cfg.dim == 2 else [])


def test_sphere_omega_failure_fails_only_the_direct_row():
    # |omega| R > 10 fails the omega diagonals, which the direct row alone
    # needs; the Bessel series the point shares do not fail the spectral row
    axis = np.array([0.0, 0.0, 1.0])
    problem = transmission_module.TransmissionProblem(
        dim=3, geometry=(12, 25.0), s=0.45, delta=1e-2, eps_c=-2.0, omega0=1.0,
        a=axis, z=30.0 * axis)
    rows, errors = sweep_module.solve_point(problem, spectrum_of(Sphere(12, 25.0)),
                                            ("direct", "spectral"))
    assert isinstance(errors[0], ValueError) and errors[1] is None
    assert np.isnan(rows[0].energy_norm) and rows[1].energy_norm > 0
    assert rows[0].a_n_abs == rows[1].a_n_abs > 0


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("stage", ("check", "table"))
@pytest.mark.parametrize("failing", ("kc", "omega"))
def test_wavenumber_failures_fail_their_rows(tmp_path, monkeypatch, failing, stage,
                                             workers):
    # a k_c that fails its resolution check or its tables fails both rows
    # of the point, an omega only the direct row; the other rows keep
    # their cells, and a wavenumber that fails its check is never tabulated,
    # whatever workers is
    reference = _ellipse_config(tmp_path, csv_path=str(tmp_path / "ref.csv"))
    run_sweep(reference)
    grid = reference.delta_grid()
    assert all(reference.problem_at(float(d)).kc.imag != 0 for d in grid)

    def fails(k):
        # omega is real, k_c is not
        return (complex(k).imag == 0) == (failing == "omega")

    evaluated = []
    check, table = layer_ops._check_wavenumber, layer_ops._distance_table

    def checking(nodes, k):
        if stage == "check" and fails(k):
            raise ValueError("unresolved wavenumber")
        return check(nodes, k)

    def tabulating(nodes, k, name, order):
        evaluated.append(k)
        if stage == "table" and fails(k):
            raise ValueError("table failed")
        return table(nodes, k, name, order)

    monkeypatch.setattr(layer_ops, "_check_wavenumber", checking)
    monkeypatch.setattr(layer_ops, "_distance_table", tabulating)
    cfg = _ellipse_config(tmp_path, workers=workers)
    result, _ = _run_watched(monkeypatch, cfg)
    rows = _masked_csv(cfg.csv_path)[1:]
    expected = _masked_csv(reference.csv_path)[1:]
    assert len(rows) == len(expected) == 2 * len(grid)
    for row, ref in zip(rows, expected):
        if failing == "kc" or row[6] == "direct":
            assert row[:3] == ref[:3] and row[6] == ref[6]
            assert row[3] == row[4] == row[7] == "nan"
            assert row[5] == ("nan" if failing == "kc" else ref[5])
        else:
            assert row == ref
    assert result.invalid_fraction == (1.0 if failing == "kc" else 0.5)
    if stage == "check":
        assert not any(fails(k) for k in evaluated)


def test_look_ahead_pool_closes_on_a_sweep_error(tmp_path, monkeypatch):
    # a non-row error at the third point propagates out of run_sweep; no
    # pool thread outlives the sweep, and the operators already built
    # one point ahead, for the fourth point, are not retained, not even
    # by the traceback the error still holds
    cfg = _ellipse_config(tmp_path)
    third, fourth = (cfg.problem_at(float(d)) for d in cfg.delta_grid()[2:4])
    ahead = []
    for name in ("assemble_S_omega", "assemble_Kstar_omega"):
        def recording(nodes, k, _original=getattr(sweep_module, name)):
            out = _original(nodes, k)
            if k in (fourth.kc, fourth.omega):
                ahead.append(weakref.ref(out))
            return out
        monkeypatch.setattr(sweep_module, name, recording)

    def failing(phi, kernels, _original=sweep_module.gradient_energy):
        if kernels.k != third.kc:
            return _original(phi, kernels)
        deadline = time.monotonic() + 60.0
        while len(ahead) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        raise TypeError("synthetic non-row error")

    monkeypatch.setattr(sweep_module, "gradient_energy", failing)
    with pytest.raises(TypeError, match="synthetic") as excinfo:
        _run_watched(monkeypatch, cfg)
    assert len(ahead) == 4
    gc.collect()
    assert all(ref() is None for ref in ahead)
    assert excinfo.traceback


@pytest.mark.parametrize("dim, workers, cores", [
    (2, 1, 1), (2, 1, 2), (2, 1, 8), (2, 2, 2), (2, 2, 8), (2, 4, 8), (3, 1, 4)])
def test_one_operator_pool_per_2d_sweep(tmp_path, monkeypatch, dim, workers, cores):
    # every 2D sweep opens one look-ahead operator pool of two threads,
    # whatever workers is and however many CPUs the process reports, and
    # hands each point its operator futures; a sphere sweep opens no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    created = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            created.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sweep_module, "ThreadPoolExecutor", Recording)
    make = _ellipse_config if dim == 2 else _sphere_config
    result, executors = _run_watched(monkeypatch, make(tmp_path, workers=workers))
    assert result.invalid_fraction == 0.0
    pooled = dim == 2
    assert all((ex is not None) == pooled for ex in executors)
    assert created == ([2] if pooled else [])


# ---------------------------------------------------------------- CLI


def test_cli_spectrum_sphere_clusters(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--geometry", "sphere:1.0", "--degree", "4",
               "--output", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    sizes = {}
    for r in rows:
        sizes[r["cluster"]] = sizes.get(r["cluster"], 0) + 1
    assert sorted(sizes.values()) == [1, 3, 5, 7, 9]


def test_cli_spectrum_ellipse_simple(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--geometry", "ellipse:2,1", "--nodes", "64",
               "--output", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lam = [float(r["lambda"]) for r in rows]
    assert abs(lam[0] - 0.5) < 1e-10
    # the leading nonzero pair is simple: distinct cluster ids
    assert rows[1]["cluster"] != rows[2]["cluster"]


def test_cli_solve_both_routes(capsys):
    rc = main(["solve", "--geometry", "sphere:1.0",
               "--degree", "8", "--eps-c", "-2", "--delta", "1e-3",
               "--scale", "1e-5", "--omega0", "1.0",
               "--dipole-a", "0,0,1", "--dipole-z", "0,0,2",
               "--solver", "both"])
    assert rc == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("solver=")]
    assert len(lines) == 2
    vals = [float(l.split("energy_norm=")[1].split()[0]) for l in lines]
    assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[0])


def _vector_arg(v):
    return ",".join(repr(float(c)) for c in v)


@pytest.mark.parametrize("solver", ("direct", "spectral"))
@pytest.mark.parametrize("make, geometry", [
    (_ellipse_config, ["--geometry", "ellipse:2,1", "--nodes", "64"]),
    (_sphere_config, ["--geometry", "sphere:1.0", "--degree", "8"])])
def test_cli_solve_prints_the_sweep_row(tmp_path, capsys, monkeypatch, make, geometry,
                                       solver):
    # `plasmonres solve` at a sweep's grid point prints, digit for digit,
    # the energy_norm, phi0_hat_abs and residual cells the sweep writes;
    # it solves through solve_point, with the geometry's spectrum and no
    # pool, and its row carries the sweep's a_n_abs cell too
    calls = []

    def recording(problem, spectrum, solvers, *rest, _original=cli_module.solve_point):
        rows, errors = _original(problem, spectrum, solvers, *rest)
        calls.append((spectrum.lambdas, rest, solvers, rows))
        return rows, errors

    monkeypatch.setattr(cli_module, "solve_point", recording)
    cfg = make(tmp_path)
    run_sweep(cfg)
    with open(cfg.csv_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["solver"] == solver]
    row = min(rows, key=lambda r: abs(np.log(float(r["delta"]) / 1e-3)))
    capsys.readouterr()
    rc = main(["solve", *geometry,
               "--eps-c", repr(cfg.eps_c), "--eps-m", repr(cfg.eps_m),
               "--omega0", repr(cfg.omega0),
               "--delta", repr(float(row["delta"])), "--scale", repr(float(row["s"])),
               "--dipole-a", _vector_arg(cfg.a), "--dipole-z", _vector_arg(cfg.z),
               "--solver", solver])
    assert rc == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("solver=")]
    assert lines == [f"solver={solver} energy_norm={row['energy_norm']} "
                     f"phi0_hat_abs={row['phi0_hat_abs']} residual={row['residual']}"]
    [(lambdas, rest, solvers, cli_rows)] = calls
    assert np.array_equal(lambdas, spectrum_of(cfg.geometry).lambdas)
    assert (rest, solvers) == ((), (solver,))
    assert repr(cli_rows[0].a_n_abs) == row["a_n_abs"]


_CLI_ELLIPSE_SOLVE = ["solve", "--geometry", "ellipse:2,1", "--nodes", "64",
                      "--eps-c", "-2", "--delta", "1e-3", "--scale", "1e-3",
                      "--dipole-a", "1,0", "--dipole-z", "3,0"]


@pytest.mark.parametrize("solver", ("direct", "spectral"))
def test_cli_solve_unresolved_wavenumber_exits_2(capsys, solver):
    # |k| diam = 6 on the radius-6 circle (diam the bounding-box diagonal)
    # is above the limit of 5, which holds at every node count
    rc = main(["solve", "--geometry", "circle:6", "--nodes", "128",
               "--eps-c", "-2", "--delta", "1e-3", "--scale", "0.5",
               "--dipole-a", "1,0", "--dipole-z", "9,0", "--solver", solver])
    assert rc == EXIT_CONFIG
    assert "energy_norm=nan" not in capsys.readouterr().out


def _with(args, **values):
    """args with the value of each --flag (underscores for dashes) replaced."""
    out = list(args)
    for flag, value in values.items():
        out[out.index("--" + flag.replace("_", "-")) + 1] = value
    return out


@pytest.mark.parametrize("scale", (0.50000001, float(np.nextafter(OMEGA_MAX, 1.0))))
def test_cli_solve_omega_above_cap_exits_2_naming_it(capsys, scale):
    # at omega0 = 1, omega = scale: just above the cap is a usage error,
    # and the message names the value itself, not a rounding of it
    assert main(_with(_CLI_ELLIPSE_SOLVE, scale=repr(scale))) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert f"omega = s*omega0 = {scale!r} exceeds" in err
    assert "solver=" not in out


def test_cli_solve_at_omega_cap_prints_finite_rows(capsys):
    assert main(_with(_CLI_ELLIPSE_SOLVE, scale=repr(OMEGA_MAX))) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("solver=")]
    assert len(lines) == 2
    for line in lines:
        cells = dict(part.split("=") for part in line.split()[1:])
        assert all(np.isfinite(float(v)) for v in cells.values())


def test_cli_solve_dipole_in_quadrature_buffer_exits_2(capsys):
    # x = 2.3 lies 0.3 from the ellipse's tip, inside the 0.393 buffer
    assert main(_with(_CLI_ELLIPSE_SOLVE, dipole_z="2.3,0")) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "quadrature buffer" in err
    assert "solver=" not in out


def test_cli_solve_sphere_dipole_pointing_at_the_sphere_exits_2(capsys):
    # a moment pointing from z = (0, 0, 2) at the sphere: the refusal names
    # the restriction, not a distance of -2
    assert main(_with(_CLI_SPHERE_SOLVE, dipole_a="0,0,-1")) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "z must be a positive multiple of a" in err
    assert "too close" not in err and "solver=" not in out


@pytest.mark.parametrize("solver", ("direct", "spectral"))
def test_cli_solve_lossless_resonant_contrast(capsys, solver):
    # delta = 1e-300 at eps_c = -2, the plasmon of slot 2 (lambda = 1/6):
    # the leading-order denominator vanishes, so the spectral route
    # exits 3 naming that slot; at finite frequency the full system stays
    # solvable, and the direct route prints its row
    rc = main(_with(_CLI_ELLIPSE_SOLVE, delta="1e-300") + ["--solver", solver])
    out, err = capsys.readouterr()
    lines = [l for l in out.splitlines() if l.startswith("solver=")]
    if solver == "spectral":
        assert rc == EXIT_NUMERICAL
        assert "modes [2]" in err
        assert lines == []
    else:
        assert rc == EXIT_OK
        [line] = lines
        assert float(line.split("residual=")[1]) <= 1e-8


_CLI_SPHERE_SOLVE = ["solve", "--geometry", "sphere:1.0", "--degree", "8",
                     "--eps-c", "-2", "--delta", "1e-3", "--scale", "1e-5",
                     "--dipole-a", "0,0,1", "--dipole-z", "0,0,2"]


@pytest.mark.parametrize("args, solver, target, error", [
    (_CLI_ELLIPSE_SOLVE, "direct", "assemble_system", RuntimeError),
    (_CLI_ELLIPSE_SOLVE, "spectral", "_guard_denominators", RuntimeError),
    (_CLI_SPHERE_SOLVE, "direct", "_solve_slots", RuntimeError),
    (_CLI_SPHERE_SOLVE, "spectral", "_guard_denominators", RuntimeError),
    (_CLI_ELLIPSE_SOLVE, "direct", "assemble_system", np.linalg.LinAlgError),
    (_CLI_SPHERE_SOLVE, "spectral", "_guard_denominators", np.linalg.LinAlgError)])
def test_cli_solve_numerical_failure_exits_3(capsys, monkeypatch, args, solver, target,
                                             error):
    # an error raised inside a row's solve exits 3 and prints no row
    def failing(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(transmission_module, target, failing)
    assert main(args + ["--solver", solver]) == EXIT_NUMERICAL
    out = capsys.readouterr().out
    assert "energy_norm=nan" not in out
    assert f"solver={solver}" not in out


@pytest.mark.parametrize("args", (_CLI_ELLIPSE_SOLVE, _CLI_SPHERE_SOLVE))
def test_cli_solve_rejects_non_physical_energy(capsys, monkeypatch, args):
    # solve shares the sweep's row check: a NaN energy exits 3, unprinted
    monkeypatch.setattr(sweep_module, "gradient_energy", lambda *a: float("nan"))
    assert main(args) == EXIT_NUMERICAL
    assert "energy_norm=" not in capsys.readouterr().out


def test_solve_point_errors_hold_no_frames(tmp_path, monkeypatch):
    # a failed row's error comes back without its traceback, so keeping
    # the error keeps none of the point's operators alive
    built = []

    def recording(*args, _original=sweep_module.helmholtz_operators):
        out = _original(*args)
        built.extend(weakref.ref(x) for x in (out, out.s, out.kstar))
        return out

    def singular(problem, operators):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(sweep_module, "helmholtz_operators", recording)
    monkeypatch.setattr(sweep_module, "solve_direct", singular)
    cfg = _ellipse_config(tmp_path)
    rows, errors = sweep_module.solve_point(cfg.problem_at(1e-3),
                                            spectrum_of(cfg.geometry),
                                            ("direct", "spectral"))
    assert isinstance(errors[0], np.linalg.LinAlgError) and errors[1] is None
    assert errors[0].__traceback__ is None
    assert np.isnan(rows[0].energy_norm) and rows[1].energy_norm > 0
    gc.collect()
    assert len(built) == 6
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize("field, value", [
    ("dim", 3.0), ("dim", True), ("points_per_decade", 2.5),
    ("points_per_decade", "3"), ("workers", 1.9), ("workers", True)])
def test_sweep_config_rejects_non_integer_counts(tmp_path, field, value):
    # a SweepConfig built directly never rounds a count either:
    # workers=1.9 must not run one worker, dim=3.0 not fail later
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _sphere_config(tmp_path, **{field: value})


def _build_owner(tmp_path, field, value):
    """Pass value for a config key straight to the constructor that keeps it."""
    if field == "n":
        return quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), value)
    if field == "degree":
        return Sphere(value, 1.0)
    if field == "radius":
        return Sphere(8, value)
    if field in ("eps_c", "omega0", "eps_m", "a", "z"):
        return transmission_module.TransmissionProblem(**{
            "dim": 3, "geometry": Sphere(8, 1.0), "s": 1e-4, "delta": 1e-2, "eps_c": -2.0,
            "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2], field: value})
    return _sphere_config(tmp_path, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("dim", 2.9), ("dim", "3"), ("dim", 3.0), ("dim", True),
    ("n", 64.8), ("n", "64"), ("degree", 12.7), ("degree", False),
    ("points_per_decade", 4.5), ("points_per_decade", "4"),
    ("workers", 1.9), ("workers", True)])
def test_cli_config_rejects_non_integer_fields(tmp_path, field, value):
    # an integer field is never rounded: 2.9 must not run as dim 2, from
    # JSON or from Python, where the constructor that keeps it refuses it
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _build_owner(tmp_path, field, value)
    geometry = ({"kind": "ellipse", "a": 2.0, "b": 1.0, "n": 64} if field == "n"
                else {"kind": "sphere", "radius": 1.0, "degree": 8})
    config = {"dim": 2 if field == "n" else 3, "geometry": geometry,
              "eps_c": -2.0, "omega0": 1.0, "csv_path": str(tmp_path / "x.csv"),
              "a": [1.0, 0.0] if field == "n" else [0.0, 0.0, 1.0],
              "z": [3.0, 0.0] if field == "n" else [0.0, 0.0, 2.0]}
    load_sweep_config(config)
    if field in geometry:
        config["geometry"] = dict(geometry, **{field: value})
    else:
        config[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        load_sweep_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field, value", [("n", 10 ** 400), ("n", 10 ** 5),
                                          ("degree", 10 ** 400), ("degree", 10 ** 5)])
def test_cli_config_caps_node_count_and_degree(tmp_path, capsys, field, value):
    # 10**400 once failed inside numpy ("Maximum allowed size exceeded"),
    # naming no key, and 10**5 would ask for N^2 or (L + 1)^2 entries at the
    # first allocation; the constructor that keeps the count refuses both,
    # naming it, before any array is built
    geometry = ({"kind": "ellipse", "a": 2.0, "b": 1.0, "n": value} if field == "n"
                else {"kind": "sphere", "radius": 1.0, "degree": value})
    config = {"dim": 2 if field == "n" else 3, "geometry": geometry,
              "eps_c": -2.0, "omega0": 1.0, "csv_path": str(tmp_path / "x.csv"),
              "a": [1.0, 0.0] if field == "n" else [0.0, 0.0, 1.0],
              "z": [3.0, 0.0] if field == "n" else [0.0, 0.0, 2.0]}
    message = f"{field} must be at most "
    with pytest.raises(ConfigError, match=message):
        load_sweep_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field, value, named", [
    ("eps_c", "-2", "eps_c"), ("omega0", True, "omega0"), ("eps_m", True, "eps_m"),
    ("eps_m", "1", "eps_m"), ("delta_max", True, "delta_max"),
    ("coupling_c", "0.01", "coupling_c"), ("a", [0, 0, True], "a"), ("z", [0, 0, "2"], "z"),
    ("a", 1.0, "a"), ("radius", "1", "sphere radius"), ("radius", True, "sphere radius"),
    ("eps_c", -10 ** 400, "eps_c"), ("a", [0, 0, 10 ** 400], "a"),
    ("points_per_decade", 10 ** 400, "points_per_decade")])
def test_cli_config_rejects_non_numbers(tmp_path, capsys, field, value, named):
    # a float field, a dipole entry or a sphere radius must be a JSON
    # number: a string or a bool is refused naming the key, not read as
    # 1.0 or failed inside numpy with a message about '<' or isfinite;
    # the constructor that keeps it refuses it from Python too. So is an
    # integer too large for a float in a float field, a dipole entry or
    # points_per_decade (at most 1000), which once ended the CLI in an
    # OverflowError traceback
    with pytest.raises(ValueError, match=f"^{named} must be a "):
        _build_owner(tmp_path, field, value)
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
              "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
              "csv_path": str(tmp_path / "x.csv")}
    load_sweep_config(config)
    if field == "radius":
        config["geometry"] = dict(config["geometry"], radius=value)
    else:
        config[field] = value
    with pytest.raises(ConfigError, match=f"^{named} must be a "):
        load_sweep_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert f"{named} must be a " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("axes", [{"a": "2", "b": 1.0}, {"a": 2.0, "b": False}])
def test_cli_config_rejects_non_number_axes(tmp_path, axes):
    # an ellipse axis is named as the ellipse's, apart from the dipole's a,
    # by make_curve from JSON and from Python alike
    with pytest.raises(ValueError, match="^ellipse (a|b) must be a number"):
        make_curve("ellipse", **axes)
    config = {"dim": 2, "geometry": {"kind": "ellipse", "n": 64, **axes}, "eps_c": -2.0,
              "omega0": 1.0, "a": [1.0, 0.0], "z": [3.0, 0.0],
              "csv_path": str(tmp_path / "x.csv")}
    with pytest.raises(ConfigError, match="^ellipse (a|b) must be a number"):
        load_sweep_config(config)


@pytest.mark.parametrize("field, value", [
    ("csv_path", 5), ("csv_path", True), ("csv_path", None), ("csv_path", ""),
    ("csv_path", ["x.csv"]), ("plot_path", True), ("plot_path", 5), ("plot_path", None)])
def test_cli_config_rejects_non_string_paths(tmp_path, capsys, monkeypatch, field, value):
    # a path is a JSON string: 5 or true must not become a file named
    # "5", nor open(True) the standard output as the SVG. SweepConfig
    # refuses each from Python too, but for plot_path=None, its default:
    # a JSON null is the reader's to refuse
    monkeypatch.chdir(tmp_path)
    if (field, value) != ("plot_path", None):
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            _build_owner(tmp_path, field, value)
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
              "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
              "csv_path": "x.csv", field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be a "):
        load_sweep_config(config)
    Path("cfg.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", "cfg.json"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{field} must be a " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, geometry, named", [
    ("sweep", {"kind": "sphere", "radius": float("nan"), "degree": 8}, "sphere radius"),
    ("sweep", {"kind": "sphere", "radius": float("inf"), "degree": 8}, "sphere radius"),
    ("sweep", {"kind": "circle", "radius": float("nan"), "n": 64}, "circle radius"),
    ("sweep", {"kind": "ellipse", "a": float("inf"), "b": 1.0, "n": 64}, "a=inf"),
    ("solve", "sphere:nan", "sphere radius"),
    ("solve", "circle:nan", "circle radius"),
    ("solve", "ellipse:nan,1", "a=nan"),
    ("spectrum", "sphere:inf", "sphere radius"),
    ("spectrum", "ellipse:inf,1", "a=inf"),
    ("sweep", {"kind": "ellipse", "a": 2.0, "n": 64}, "missing parameters for ellipse: ['b']"),
    ("sweep", {"kind": "ellipse", "b": 1.0, "n": 64}, "missing parameters for ellipse: ['a']"),
    ("solve", "ellipse:2", "missing parameters for ellipse: ['b']")])
def test_cli_refuses_non_finite_geometry(tmp_path, capsys, command, geometry, named):
    # Python's json reads NaN and Infinity: a geometry built from them
    # exits 2 naming the parameter, before any row is written; so does an
    # ellipse without one of its axes, which once ended in a KeyError
    dim = 3 if "sphere" in str(geometry) else 2
    a, z = ("0,0,1", "0,0,2") if dim == 3 else ("1,0", "3,0")
    csv_path = tmp_path / "x.csv"
    if command == "sweep":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "dim": dim, "geometry": geometry, "eps_c": -2.0, "omega0": 1.0,
            "a": [float(c) for c in a.split(",")], "z": [float(c) for c in z.split(",")],
            "csv_path": str(csv_path)}))
        argv = ["sweep", "--config", str(path)]
    elif command == "solve":
        argv = ["solve", "--geometry", geometry, "--eps-c", "-2",
                "--delta", "1e-2", "--scale", "1e-4", "--dipole-a", a, "--dipole-z", z]
    else:
        argv = ["spectrum", "--geometry", geometry]
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("name, flag, bad", [
    ("eps_c", "eps-c", float("nan")), ("eps_c", "eps-c", float("-inf")),
    ("eps_m", "eps-m", float("inf")), ("eps_m", "eps-m", float("nan")),
    ("a", "dipole-a", float("nan")), ("a", "dipole-a", float("-inf")),
    ("z", "dipole-z", float("inf")), ("z", "dipole-z", float("nan")),
    ("omega0", "omega0", float("inf")), ("omega0", "omega0", float("nan")),
    ("delta", "delta", float("inf")), ("s", "scale", float("inf")),
    ("s", "scale", float("nan")), ("delta_max", None, float("inf")),
    ("delta_min", None, float("-inf"))])
def test_cli_refuses_non_finite_physical_parameters(tmp_path, capsys, name, flag, bad):
    # a non-finite contrast, background, dipole, frequency, loss or scale
    # in a sweep config (JSON Infinity and NaN) or the solve flags exits 2
    # naming the parameter, before any row; delta and s are solve flags
    # only, and the loss grid's ends sweep keys only
    csv_path = tmp_path / "x.csv"
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
              "eps_c": -2.0, "eps_m": 1.0, "omega0": 1.0, "a": [0.0, 0.0, 1.0],
              "z": [0.0, 0.0, 2.0], "csv_path": str(csv_path)}
    if name in ("a", "z"):
        config[name][0] = bad
        value = ",".join(map(repr, config[name]))
    else:
        config[name] = bad
        value = repr(bad)
    argvs = []
    if name not in ("delta", "s"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argvs.append(["sweep", "--config", str(path)])
    if flag is not None:
        # --flag=value, since argparse takes a lone -inf for an option
        solve = _CLI_SPHERE_SOLVE + ["--eps-m", "1", "--omega0", "1"]
        at = solve.index("--" + flag)
        argvs.append(solve[:at] + solve[at + 2:] + [f"--{flag}={value}"])
    for argv in argvs:
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"{name} must be finite" in err
        assert "solver=" not in out
    assert not csv_path.exists()


@pytest.mark.parametrize("eps_c", (2.0, 0.0, 1e-300))
def test_cli_refuses_non_negative_contrast(tmp_path, capsys, monkeypatch, eps_c):
    # eps_c >= 0 fails validation: the sweep exits 2 before it builds the
    # spectrum and writes no CSV, and solve exits 2 before any row
    built = []
    monkeypatch.setattr(sweep_module, "spectrum_of", lambda g: built.append(g))
    csv_path = tmp_path / "x.csv"
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
              "eps_c": eps_c, "omega0": 1.0, "a": [0.0, 0.0, 1.0], "z": [0.0, 0.0, 2.0],
              "csv_path": str(csv_path)}
    with pytest.raises(ConfigError, match="^eps_c must be negative"):
        load_sweep_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    solve = _CLI_SPHERE_SOLVE[:]
    solve[solve.index("--eps-c") + 1] = repr(eps_c)
    for argv in (["sweep", "--config", str(path)], solve):
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "eps_c must be negative" in err
        assert "solver=" not in out
    assert built == [] and not csv_path.exists()


def test_cli_config_bad_vector_is_config_error(tmp_path):
    # every malformed value of a config raises ConfigError, the dipole
    # vectors included
    config = {"dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
              "eps_c": -2.0, "omega0": 1.0, "a": "x", "z": [0, 0, 2],
              "csv_path": str(tmp_path / "x.csv")}
    with pytest.raises(ConfigError):
        load_sweep_config(config)


def test_cli_sweep_from_json(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    config = {
        "dim": 3,
        "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
        "eps_c": -2.0, "omega0": 1.0,
        "a": [0.0, 0.0, 1.0], "z": [0.0, 0.0, 2.0],
        "csv_path": str(csv_path),
        "delta_max": 1e-2, "delta_min": 1e-4,
        "points_per_decade": 3, "solver": "spectral",
        "plot_path": str(svg_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["sweep", "--config", str(cfg_path)])
    assert rc == EXIT_OK
    assert csv_path.exists() and svg_path.exists()
    out = capsys.readouterr().out
    assert "verdict=resonant" in out
    svg = svg_path.read_text()
    assert svg.count("<circle") == 7
    assert "slope = -1.0" in svg


def test_cli_config_rejects_unknown_keys(tmp_path):
    base = {
        "dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
        "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
        "csv_path": str(tmp_path / "x.csv"),
    }
    with pytest.raises(ConfigError):
        load_sweep_config({**base, "extra_knob": 1})
    with pytest.raises(ConfigError):
        load_sweep_config({**base, "geometry": {"kind": "sphere", "color": "red"}})
    missing = {k: v for k, v in base.items() if k != "eps_c"}
    with pytest.raises(ConfigError):
        load_sweep_config(missing)


def test_cli_config_file_and_dict_agree(tmp_path):
    base = {
        "dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
        "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
        "csv_path": str(tmp_path / "x.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    c1 = load_sweep_config(base)
    c2 = load_sweep_config(str(path))
    assert c1.delta_grid().tolist() == c2.delta_grid().tolist()
    assert c1.eps_c == c2.eps_c


def test_cli_exit_codes(tmp_path, monkeypatch):
    assert main(["spectrum", "--geometry", "triangle:1"]) == EXIT_CONFIG
    assert main(["plot", "--csv", str(tmp_path / "missing.csv"),
                 "--output", str(tmp_path / "o.svg")]) == EXIT_CONFIG
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", "--csv", str(empty),
                 "--output", str(tmp_path / "o.svg")]) == EXIT_CONFIG
    monkeypatch.setitem(cli_module._SUITES, "layer",
                        lambda: [{"name": "forced", "measured": 1.0,
                                  "tolerance": 0.1, "passed": False}])
    assert main(["validate", "layer"]) == EXIT_VALIDATION

    def boom(config):
        raise RuntimeError("synthetic numerical failure")

    monkeypatch.setattr(cli_module, "run_sweep", boom)
    cfg = {
        "dim": 3, "geometry": {"kind": "sphere", "radius": 1.0, "degree": 8},
        "eps_c": -2.0, "omega0": 1.0, "a": [0, 0, 1], "z": [0, 0, 2],
        "csv_path": str(tmp_path / "x.csv"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p)]) == EXIT_NUMERICAL


def test_cli_validate_passes():
    report = validate("spectrum")
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def test_plot_determinism_and_guards(tmp_path):
    csv_path = tmp_path / "rows.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for d, e in ((1e-2, 10.0), (1e-3, 100.0)):
            w.writerow([repr(d), repr(1e-4), repr(1e-4), repr(e), repr(1.0),
                        repr(0.5), "spectral", repr(0.0), "1.000"])
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(str(csv_path), str(s1))
    emit_plot(str(csv_path), str(s2))
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_text().count("<circle") == 2
    header_only = tmp_path / "h.csv"
    header_only.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError):
        emit_plot(str(header_only), str(tmp_path / "c.svg"))
    malformed = tmp_path / "m.csv"
    malformed.write_text(",".join(CSV_COLUMNS) + "\n" +
                         ",".join(["oops"] * len(CSV_COLUMNS)) + "\n")
    with pytest.raises(ValueError):
        emit_plot(str(malformed), str(tmp_path / "d.svg"))


def test_plot_escapes_solver_names(tmp_path):
    # a solver cell is free text; the SVG it lands in must stay
    # well-formed XML and show the name as written
    csv_path = tmp_path / "rows.csv"
    names = ("a&b", "<x>")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for name in names:
            for d, e in ((1e-2, 10.0), (1e-3, 100.0)):
                w.writerow([repr(d), repr(1e-4), repr(1e-4), repr(e), repr(1.0),
                            repr(0.5), name, repr(0.0), "1.000"])
    svg = tmp_path / "rows.svg"
    assert main(["plot", "--csv", str(csv_path), "--output", str(svg)]) == 0
    texts = [node.firstChild.data
             for node in minidom.parse(str(svg)).getElementsByTagName("text")]
    assert all(name in texts for name in names)


def test_python_m_entry_point():
    package_root = str(Path(cli_module.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plasmonres", "validate", "spectrum"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0
    assert "passed" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_console_entry_point():
    # Run the wrapper that pip generates from [project.scripts], so the
    # declared target is checked from the source tree without an install.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["plasmonres"]
    entry = EntryPoint(name="plasmonres", value=target,
                       group="console_scripts")
    assert callable(entry.load())
    wrapper = (f"import sys\nfrom {entry.module} import {entry.attr}\n"
               f"sys.argv[0] = 'plasmonres'\nsys.exit({entry.attr}())\n")
    # The directory holding the imported package, absolute, so a relative
    # PYTHONPATH and any working directory both work.
    package_root = str(Path(cli_module.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    commands = [([sys.executable, "-c", wrapper],
                 dict(os.environ, PYTHONPATH=pythonpath))]
    installed = shutil.which("plasmonres")
    if installed:
        commands.append(([installed], None))
    for command, env in commands:
        proc = subprocess.run(command + ["validate", "spectrum"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "passed" in proc.stdout
        proc = subprocess.run(command + ["no-such-command"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_CONFIG
