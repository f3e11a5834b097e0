"""
Command line front end: spectra, one-off solves, loss sweeps,
self-validation, and CSV plotting.

Subcommands
-----------
spectrum   eigenvalue table of a boundary as CSV (n, lambda, cluster)
solve      one transmission solve; prints energy and diagnostics
sweep      run a SweepConfig from a JSON file, write CSV (+ SVG)
validate   run a named check suite, emit a JSON report
plot       render a sweep CSV as a log-log SVG

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure, 4 validation mismatch. JSON sweep configs use snake_case
keys mirroring SweepConfig; unknown keys are rejected rather than
ignored so typos cannot silently change a run.
"""

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .geometry import CURVE_PARAMS, Sphere, make_curve, quadrature_nodes
from .layer_ops import assemble_S, assemble_Kstar, assemble_S_omega, helmholtz_operators
from .np_spectrum import sphere_spectrum, spectrum_of, cluster_ids
from .transmission import TransmissionProblem, solve_direct, gradient_energy, \
    interior_gradient_energy
from .sweep import SweepConfig, run_sweep, fit_blowup_rate, solve_point

__all__ = [
    "main",
    "validate",
    "emit_plot",
    "load_sweep_config",
    "ConfigError",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_NUMERICAL",
    "EXIT_VALIDATION",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    """Invalid CLI arguments or JSON sweep configuration."""


# ------------------------------------------------------------ geometry

# each geometry kind's parameters in `kind:v1,v2` order, with their
# defaults; the sphere's radius is its R
_KINDS = {**CURVE_PARAMS, "sphere": {"radius": 1.0}}


def _parse_geometry_arg(text):
    """
    Parse a compact geometry string: 'circle:R', 'ellipse:A,B', 'kite',
    'sphere:R', values in _KINDS order. Returns (kind, params dict); a
    parameter left out is make_curve's or the sphere's to default or
    refuse.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ConfigError(f"unknown geometry kind {kind!r}")
    names = list(_KINDS[kind])
    values = rest.split(",") if rest else []
    if len(values) > len(names):
        raise ConfigError(f"bad geometry argument {text!r}: more values than the "
                          f"parameters {names} of {kind}")
    try:
        return kind, {name: float(v) for name, v in zip(names, values)}
    except ValueError as exc:
        raise ConfigError(f"bad geometry argument {text!r}: {exc}") from exc


def _build_geometry(kind, params, nodes_n, degree):
    """Sphere of degree `degree` for a sphere, else the NodeSet of nodes_n nodes."""
    if kind == "sphere":
        return Sphere(degree, params.get("radius", _KINDS["sphere"]["radius"]))
    return quadrature_nodes(make_curve(kind, **params), nodes_n)


def _vector(text):
    """argparse type of the dipole flags: '1,0' -> [1.0, 0.0]."""
    return [float(p) for p in text.split(",")]


# ---------------------------------------------------------- JSON config

# each SweepConfig field, True for those without a default: required keys
_FIELDS = {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(SweepConfig)}
_GEOMETRY_KEYS = {kind: {"kind", *params, "degree" if kind == "sphere" else "n"}
                  for kind, params in _KINDS.items()}


def load_sweep_config(source):
    """
    Build a SweepConfig from a JSON file path or an already-parsed
    dict. Keys are the snake_case SweepConfig field names; geometry is
    an object like {"kind": "ellipse", "a": 2, "b": 1, "n": 256} or
    {"kind": "sphere", "radius": 1, "degree": 12} (n 256, degree 12 by
    default). Unknown or missing keys, another geometry shape, and a
    null raise ConfigError naming the key. The values are checked by the
    constructors that keep them, so Python and JSON refuse the same
    ones; their ValueError or TypeError comes out as a ConfigError.
    """
    if isinstance(source, dict):
        data = dict(source)
    else:
        with open(source) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("sweep config must be a JSON object")

    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, required in _FIELDS.items() if required and k not in data)
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    geom = data["geometry"]
    if not isinstance(geom, dict) or "kind" not in geom:
        raise ConfigError("geometry must be an object with a 'kind' key")
    kind = geom["kind"]
    if not (isinstance(kind, str) and kind in _GEOMETRY_KEYS):
        raise ConfigError(f"unknown geometry kind {kind!r}")
    bad = sorted(set(geom) - _GEOMETRY_KEYS[kind])
    if bad:
        raise ConfigError(f"unknown geometry keys for {kind}: {', '.join(bad)}")
    for key, value in [*data.items(), *((f"geometry {k}", v) for k, v in geom.items())]:
        if value is None:
            raise ConfigError(f"{key} must be a value, not null")
    params = {k: geom[k] for k in _KINDS[kind] if k in geom}
    try:
        geometry = _build_geometry(kind, params, geom.get("n", 256), geom.get("degree", 12))
        return SweepConfig(**{**data, "geometry": geometry})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ----------------------------------------------------------- validation


# The rounding-level checks are bounded at 100 times the larger of their
# readings at 1 and 2 OpenBLAS threads, rounded up to one digit; the
# quasi-static and interior checks measure discretisation gaps instead.
def _check(name, measured, tolerance):
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "passed": bool(measured <= tolerance),
    }


def _suite_spectrum():
    checks = []
    spec = spectrum_of(quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 256))
    expected = []
    for n in range(1, 5):
        v = 0.5 * (1.0 / 3.0) ** n
        expected.extend([-v, v])
    err = max(abs(spec.lambdas[i + 1] - expected[i]) for i in range(8))
    checks.append(_check("ellipse_first8_eigenvalues", err, 2e-14))
    checks.append(_check("ellipse_equilibrium_half", abs(spec.lambdas[0] - 0.5), 3e-14))
    sph = sphere_spectrum(Sphere(12, 1.0))
    lam_err = max(abs(sph.lambdas[n * n + n] - 0.5 / (2 * n + 1)) for n in range(13))
    # both sides are one correctly rounded division of the same number
    checks.append(_check("sphere_eigenvalues_exact", lam_err, 0.0))
    return checks


def _suite_layer():
    checks = []
    nodes = quadrature_nodes(make_curve("circle", radius=1.0), 128)
    t = nodes.t
    s_mat = assemble_S(nodes)
    k_mat = assemble_Kstar(nodes)
    c3 = np.cos(3 * t)
    err_s = np.linalg.norm(s_mat @ c3 + c3 / 6.0) / np.linalg.norm(c3 / 6.0)
    checks.append(_check("circle_S_cos3_eigenvalue", err_s, 2e-13))
    err_k = np.linalg.norm(k_mat @ c3) / np.linalg.norm(c3)
    checks.append(_check("circle_Kstar_cos3_null", err_k, 3e-14))
    ones = np.ones(nodes.n)
    err_k0 = np.linalg.norm(k_mat @ ones - 0.5 * ones) / np.linalg.norm(ones)
    checks.append(_check("circle_Kstar_equilibrium_half", err_k0, 4e-14))
    sk = assemble_S_omega(nodes, 0.5)
    e1 = np.exp(1j * t)
    # unit-circle Helmholtz single layer on e^{it}: known Bessel product
    oracle = -0.5599752985327319 - 0.09219632837648107j
    err_sk = np.linalg.norm(sk @ e1 - oracle * e1) / (abs(oracle) * np.linalg.norm(e1))
    checks.append(_check("circle_S_helmholtz_mode1", err_sk, 3e-14))
    return checks


def _suite_energy():
    checks = []
    nodes = quadrature_nodes(make_curve("ellipse", a=2.0, b=1.0), 192)
    spec = spectrum_of(nodes)
    # tied mode at small real wavenumber: energy must match the
    # quasi-static mode energy (1/2 - lambda_1) of a unit mode
    k_small = 0.005
    phi1 = spec.densities[:, 1]
    e_num = gradient_energy(phi1, helmholtz_operators(nodes, k_small))
    e_ref = 0.5 - spec.lambdas[1]
    checks.append(_check("quasistatic_mode_energy", abs(e_num - e_ref) / e_ref, 1e-3))
    # boundary Green identity against independent interior quadrature
    problem = TransmissionProblem(dim=2, geometry=nodes, s=0.1, delta=0.05,
                                  eps_c=-2.0, omega0=1.0, a=[1.0, 0.0], z=[3.0, 0.0])
    at_kc = helmholtz_operators(nodes, problem.kc)
    sol = solve_direct(problem, operators=(at_kc, helmholtz_operators(nodes, problem.omega)))
    e_b = gradient_energy(sol.phi, at_kc)
    e_i = interior_gradient_energy(sol.phi, at_kc)
    checks.append(_check("green_identity_vs_interior", abs(e_b - e_i) / abs(e_i), 0.02))
    return checks


# the check suites in the order "all" runs them
_SUITES = {"spectrum": _suite_spectrum, "layer": _suite_layer, "energy": _suite_energy}
_VALIDATE_SUITES = (*_SUITES, "all")


def validate(suite):
    """
    Run a named check suite and return the JSON-ready report dict:
    {"suite", "passed", "checks": [{"name", "measured", "tolerance",
    "passed"}, ...]}. Raises ConfigError for unknown suite names.
    """
    if suite not in _VALIDATE_SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {_VALIDATE_SUITES}")
    checks = []
    for name in _SUITES if suite == "all" else (suite,):
        checks.extend(_SUITES[name]())
    return {
        "suite": suite,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


# ------------------------------------------------------------- plotting

_PLOT_W, _PLOT_H = 640, 480
_BOX = (70.0, 30.0, 610.0, 430.0)  # left, top, right, bottom
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _decade_ticks(lo, hi):
    first = int(np.ceil(lo - 1e-9))
    last = int(np.floor(hi + 1e-9))
    step = 1 if last - first <= 8 else 2
    return list(range(first, last + 1, step))


def emit_plot(csv_path, svg_path):
    """
    Render a sweep CSV as a deterministic log-log SVG: energy_norm
    against delta, one marker per row, one polyline per solver, with
    the fitted slope annotated to three decimals. The output depends
    only on the CSV bytes. Empty or malformed CSV raises ValueError.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{csv_path} is empty")
        required = {"delta", "energy_norm", "solver"}
        if not required.issubset(reader.fieldnames):
            missing = sorted(required - set(reader.fieldnames))
            raise ValueError(f"{csv_path} lacks columns: {', '.join(missing)}")
        raw = list(reader)
    if not raw:
        raise ValueError(f"{csv_path} has no data rows")

    series = {}
    order = []
    for row in raw:
        try:
            d = float(row["delta"])
            e = float(row["energy_norm"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed numeric cell in {csv_path}: {exc}") from exc
        if not (np.isfinite(d) and d > 0 and np.isfinite(e) and e > 0):
            continue
        name = row["solver"]
        if name not in series:
            series[name] = []
            order.append(name)
        series[name].append((d, e))
    if not order:
        raise ValueError(f"{csv_path} has no plottable rows")

    pts = [p for name in order for p in series[name]]
    lx = np.log10([p[0] for p in pts])
    ly = np.log10([p[1] for p in pts])
    lx_lo, lx_hi = float(lx.min()), float(lx.max())
    ly_lo, ly_hi = float(ly.min()), float(ly.max())
    if lx_hi - lx_lo < 1e-9:
        lx_lo, lx_hi = lx_lo - 0.5, lx_hi + 0.5
    if ly_hi - ly_lo < 1e-9:
        ly_lo, ly_hi = ly_lo - 0.5, ly_hi + 0.5
    left, top, right, bottom = _BOX

    def px(v):
        return left + (v - lx_lo) / (lx_hi - lx_lo) * (right - left)

    def py(v):
        return bottom - (v - ly_lo) / (ly_hi - ly_lo) * (bottom - top)

    try:
        slope, _ = fit_blowup_rate(series[order[0]])
        slope_text = f"slope = {slope:.3f}"
    except ValueError:
        slope_text = "slope = n/a"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLOT_W}" '
        f'height="{_PLOT_H}" viewBox="0 0 {_PLOT_W} {_PLOT_H}">',
        f'<rect x="0" y="0" width="{_PLOT_W}" height="{_PLOT_H}" fill="#ffffff"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="#000000"/>',
    ]
    for d in _decade_ticks(lx_lo, lx_hi):
        x = px(d)
        parts.append(f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" '
                     f'y2="{bottom:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{bottom + 18:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">1e{d}</text>')
    for d in _decade_ticks(ly_lo, ly_hi):
        y = py(d)
        parts.append(f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6:.2f}" y="{y + 4:.2f}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">1e{d}</text>')
    parts.append(f'<text x="{(left + right) / 2:.2f}" y="{bottom + 38:.2f}" '
                 f'font-family="monospace" font-size="12" text-anchor="middle">delta</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2:.2f}" font-family="monospace" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(top + bottom) / 2:.2f})">'
                 f'energy_norm</text>')
    for i, name in enumerate(order):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        coords = [(px(np.log10(d)), py(np.log10(e))) for d, e in series[name]]
        if len(coords) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        # the solver cell is free text: escaped, it cannot break the XML
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{right - 8:.2f}" y="{top + 16 + 14 * i:.2f}" '
                     f'font-family="monospace" font-size="11" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append(f'<text x="{left + 10:.2f}" y="{top + 16:.2f}" '
                 f'font-family="monospace" font-size="12">{slope_text}</text>')
    parts.append("</svg>")
    with open(svg_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return svg_path


# ----------------------------------------------------------- subcommands


def _cmd_spectrum(args):
    kind, params = _parse_geometry_arg(args.geometry)
    spec = spectrum_of(_build_geometry(kind, params, args.nodes, args.degree))
    lam = spec.lambdas
    cluster = cluster_ids(lam)
    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["n", "lambda", "cluster"])
        for i in range(lam.size):
            writer.writerow([i, repr(float(lam[i])), int(cluster[i])])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _cmd_solve(args):
    kind, params = _parse_geometry_arg(args.geometry)
    geometry = _build_geometry(kind, params, args.nodes, args.degree)
    problem = TransmissionProblem(dim=3 if kind == "sphere" else 2, geometry=geometry,
                                  s=args.scale, delta=args.delta, eps_c=args.eps_c,
                                  omega0=args.omega0, a=args.dipole_a, z=args.dipole_z,
                                  eps_m=args.eps_m)
    selected = ("direct", "spectral") if args.solver == "both" else (args.solver,)
    rows, errors = solve_point(problem, spectrum_of(geometry), selected)
    print(f"dim={problem.dim} geometry={args.geometry} eps_c={args.eps_c!r} "
          f"eps_m={args.eps_m!r} delta={args.delta!r} s={args.scale!r} "
          f"omega={problem.omega!r}")
    for row, error in zip(rows, errors):
        if error is not None:
            raise error
        print(f"solver={row.solver} energy_norm={row.energy_norm!r} "
              f"phi0_hat_abs={row.phi0_hat_abs!r} residual={row.residual!r}")
    return EXIT_OK


def _cmd_sweep(args):
    config = load_sweep_config(args.config)
    result = run_sweep(config)
    if result.slope is None:
        slope_text = "slope=n/a interval=n/a"
    else:
        lo, hi = result.slope_interval
        slope_text = f"slope={result.slope:.4f} interval=[{lo:.4f},{hi:.4f}]"
    print(f"rows={len(result.rows)} csv={result.csv_path} "
          f"verdict={result.verdict} {slope_text} "
          f"invalid_fraction={result.invalid_fraction:.3f}")
    if config.plot_path:
        emit_plot(result.csv_path, config.plot_path)
        print(f"plot={config.plot_path}")
    return EXIT_OK


def _cmd_validate(args):
    report = validate(args.suite)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"report={args.output} passed={report['passed']}")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _cmd_plot(args):
    emit_plot(args.csv, args.output)
    print(f"plot={args.output}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plasmonres",
        description="Plasmon resonance spectra, transmission solves, and loss sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalue table as CSV")
    p_spec.add_argument("--geometry", required=True,
                        help="circle:R | ellipse:A,B | kite | sphere:R")
    p_spec.add_argument("--nodes", type=int, default=256, help="2D node count")
    p_spec.add_argument("--degree", type=int, default=12, help="3D max degree")
    p_spec.add_argument("--output", default="-", help="CSV path or - for stdout")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_solve = sub.add_parser("solve", help="single transmission solve")
    p_solve.add_argument("--geometry", required=True,
                         help="as for spectrum; a sphere solves in 3D, a curve in 2D")
    p_solve.add_argument("--nodes", type=int, default=256)
    p_solve.add_argument("--degree", type=int, default=12)
    p_solve.add_argument("--eps-c", type=float, required=True)
    p_solve.add_argument("--eps-m", type=float, default=1.0)
    p_solve.add_argument("--delta", type=float, required=True)
    p_solve.add_argument("--scale", type=float, required=True)
    p_solve.add_argument("--omega0", type=float, default=1.0)
    p_solve.add_argument("--dipole-a", type=_vector, required=True, help="moment, e.g. 1,0")
    p_solve.add_argument("--dipole-z", type=_vector, required=True,
                         help="location, e.g. 3,0")
    p_solve.add_argument("--solver", choices=("direct", "spectral", "both"),
                         default="both")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="loss sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="JSON SweepConfig file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run a check suite")
    p_val.add_argument("suite", choices=_VALIDATE_SUITES)
    p_val.add_argument("--output", default="-", help="JSON report path or -")
    p_val.set_defaults(func=_cmd_validate)

    p_plot = sub.add_parser("plot", help="render a sweep CSV as SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--output", required=True)
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so it is caught first
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
